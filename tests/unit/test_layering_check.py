"""The layering lint has teeth (tools/layering_check.py).

The real tree must pass it, and — more importantly — it must actually
fire on each class of violation it claims to catch, so a future
refactor cannot quietly reintroduce the client → server shortcuts this
repo just removed.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parents[2]
         / "tools" / "layering_check.py")


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("layering_check", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_real_tree_is_clean(lint):
    assert lint.main() == 0


def test_client_importing_a_server_module_is_flagged(lint):
    problems = lint.check_source(
        "repro.client.sneaky",
        "from repro.services.gdocs.server import GDocsServer\n",
    )
    assert len(problems) == 2  # banned module AND bound server name
    assert "server internals" in problems[0]


def test_every_banned_server_module_exists(lint):
    """A ban on a module that is gone guards nothing: when a server
    module moves or goes, its entry must follow."""
    for module in lint.SERVER_MODULES:
        path = lint.SRC.parent.joinpath(*module.split("."))
        assert path.with_suffix(".py").is_file() or path.is_dir(), module


def test_client_importing_the_registry_is_flagged(lint):
    problems = lint.check_source(
        "repro.client.sneaky",
        "from repro.services.registry import make_server\n",
    )
    assert problems and "registry" in problems[0]


def test_extension_may_use_the_registry_but_not_servers(lint):
    assert lint.check_source(
        "repro.extension.session",
        "from repro.services.registry import make_server\n",
    ) == []
    assert lint.check_source(
        "repro.extension.sneaky",
        "import repro.services.replicated\n",
    )


@pytest.mark.parametrize("module", ("repro.extension.whole_file",
                                    "repro.extension.gdocs_ext",
                                    "repro.extension.sneaky"))
def test_only_the_session_builder_may_use_the_registry(lint, module):
    for source in ("from repro.services.registry import make_server\n",
                   "from repro.services import registry\n",
                   "import repro.services.registry\n"):
        problems = lint.check_source(module, source)
        assert problems and "registry" in problems[0], (module, source)


def test_service_importing_the_trusted_layer_is_flagged(lint):
    problems = lint.check_source(
        "repro.services.evil",
        "from repro.extension.passwords import PasswordVault\n",
    )
    assert problems and "untrusted" in problems[0]


def test_protocol_surface_is_allowed(lint):
    assert lint.check_source(
        "repro.client.fine",
        "from repro.services.backend import GDOCS\n"
        "from repro.services.gdocs import protocol\n"
        "from repro.services.bespin import put_request\n",
    ) == []


# -- the PR-7 transport rules --------------------------------------------


def test_net_importing_the_trusted_layer_is_flagged(lint):
    for banned in ("repro.client.resilient", "repro.extension.session",
                   "repro.crypto.aes"):
        problems = lint.check_source(
            "repro.net.sneaky", f"import {banned}\n",
        )
        assert problems and "trust boundary" in problems[0], banned


def test_net_may_use_services_and_encoding(lint):
    assert lint.check_source(
        "repro.net.server",
        "from repro.services import registry\n"
        "from repro.encoding.formenc import encode_form\n"
        "from repro.obs import counter\n",
    ) == []


def test_trusted_importing_the_socket_server_is_flagged(lint):
    for module in ("repro.client.sneaky", "repro.extension.sneaky"):
        problems = lint.check_source(
            module, "from repro.net.server import ReproServer\n",
        )
        assert problems and "Transport seam" in problems[0], module


def test_client_importing_the_pool_is_flagged(lint):
    problems = lint.check_source(
        "repro.client.sneaky",
        "from repro.net.pool import ConnectionPool\n",
    )
    assert problems and "raw connections" in problems[0]
    # the extension layer may wire transports up (sessions do)
    assert lint.check_source(
        "repro.extension.session",
        "from repro.net.transport import InProcessTransport\n",
    ) == []


# -- the PR-8 OT merge-engine rules --------------------------------------


def test_ot_importing_crypto_is_flagged(lint):
    for banned in ("repro.crypto", "repro.crypto.aes"):
        problems = lint.check_source(
            "repro.services.ot", f"import {banned}\n",
        )
        assert problems and "key material" in problems[0], banned


def test_ot_importing_the_trusted_layer_is_flagged(lint):
    # covered by the general services rule — pin it for repro.services.ot
    for banned in ("repro.client.resilient", "repro.extension.session"):
        problems = lint.check_source(
            "repro.services.ot", f"import {banned}\n",
        )
        assert problems and "untrusted" in problems[0], banned


def test_ot_may_use_core_delta_algebra_and_obs(lint):
    assert lint.check_source(
        "repro.services.ot",
        "from repro.core.delta import Delta\n"
        "from repro.core.ot import compose, transform\n"
        "from repro.obs import counter, histogram\n",
    ) == []


# -- the PR-10 workspace/catalog/audit rules ------------------------------


def test_catalog_importing_the_trusted_layer_is_flagged(lint):
    # the general services rule covers the catalog op — pin it
    for banned in ("repro.client.workspace", "repro.extension.catalog"):
        problems = lint.check_source(
            "repro.services.catalog", f"import {banned}\n",
        )
        assert problems and "untrusted" in problems[0], banned


def test_catalog_importing_crypto_is_flagged(lint):
    for banned in ("repro.crypto", "repro.crypto.random"):
        problems = lint.check_source(
            "repro.services.catalog", f"import {banned}\n",
        )
        assert problems and "key material" in problems[0], banned


def test_auditchain_importing_services_is_flagged(lint):
    for banned in ("repro.services", "repro.services.catalog"):
        problems = lint.check_source(
            "repro.core.auditchain", f"import {banned}\n",
        )
        assert problems and "verifier" in problems[0], banned


def test_trusted_binding_catalog_server_names_is_flagged(lint):
    for name in ("CatalogService", "CatalogStore"):
        problems = lint.check_source(
            "repro.client.sneaky",
            f"from repro.services.catalog import {name}\n",
        )
        assert problems and name in problems[0], name


def test_trusted_may_use_catalog_wire_builders(lint):
    assert lint.check_source(
        "repro.client.workspace",
        "from repro.services.catalog import (\n"
        "    catalog_chain_request,\n"
        "    catalog_list_request,\n"
        "    catalog_lookup_request,\n"
        ")\n",
    ) == []
    assert lint.check_source(
        "repro.extension.gdocs_ext",
        "from repro.services.catalog import A_AUDIT_LINK, F_INDEX\n",
    ) == []
