"""The browser-extension layer: the one mediator (incremental on Google
Documents, whole-file on Bespin/Buzzword), password management,
covert-channel countermeasures, and the high-level
:class:`PrivateEditingSession`."""

from repro.extension.countermeasures import Countermeasures
from repro.extension.freshness import FreshnessMonitor, RollbackError
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.passwords import PasswordVault
from repro.extension.proxy import MediatingProxy
from repro.extension.session import PrivateEditingSession

__all__ = [
    "GDocsExtension",
    "PasswordVault",
    "Countermeasures",
    "FreshnessMonitor",
    "RollbackError",
    "MediatingProxy",
    "PrivateEditingSession",
]
