"""Client-side application models: the editor buffer, the resilient
client core that speaks any backend's protocol (Bespin and Buzzword use
it as is), and the Google Documents client with its feature calls.  All
clients are oblivious to the extension — they speak plaintext and never
cooperate with the mediator.
"""

from repro.client.coalesce import EditCoalescer
from repro.client.editor import EditorBuffer
from repro.client.resilient import ResilientClient
from repro.client.userjs_client import SelfEncryptingGDocsClient
from repro.client.gdocs_client import CONFLICT_COMPLAINT, GDocsClient, SaveOutcome

__all__ = [
    "EditCoalescer",
    "EditorBuffer",
    "ResilientClient",
    "GDocsClient",
    "SaveOutcome",
    "CONFLICT_COMPLAINT",
    "SelfEncryptingGDocsClient",
]
