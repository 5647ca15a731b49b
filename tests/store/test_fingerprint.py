"""The store's code version: a fingerprint of the sources that decide results."""

import os
import shutil

import pytest

from repro.api import (
    AGGREGATORS,
    ENGINES,
    EXPERIMENTS,
    GRAPH_TRANSFORMS,
    GRAPHS,
    PROTOCOLS,
    SCHEDULERS,
    DriverExperiment,
    ensure_registered,
)
from repro.store import current_code_version
from repro.store.keys import (
    PACKAGE_ROOT,
    UNFINGERPRINTED,
    fingerprinted,
    source_fingerprint,
)


@pytest.fixture()
def tree(tmp_path):
    """A copy of the package sources to edit."""
    root = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__"))
    return root


def append(path, text):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)


class TestSourceFingerprint:
    def test_copy_of_the_tree_has_the_package_fingerprint(self, tree, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_CODE_VERSION", raising=False)
        assert source_fingerprint(str(tree)) == source_fingerprint() == current_code_version()

    def test_core_edit_changes_it(self, tree):
        before = source_fingerprint(str(tree))
        append(tree / "core" / "intervals.py", "\n# a kernel edit\n")
        assert source_fingerprint(str(tree)) != before

    def test_new_module_changes_it(self, tree):
        before = source_fingerprint(str(tree))
        (tree / "core" / "extra.py").write_text("X = 1\n")
        assert source_fingerprint(str(tree)) != before

    @pytest.mark.parametrize(
        "relpath", ["cli.py", "service/server.py", "store/store.py", "analysis/report.py"]
    )
    def test_unfingerprinted_edit_keeps_it(self, tree, relpath):
        before = source_fingerprint(str(tree))
        append(tree / relpath, "\n# an edit that decides no result\n")
        assert source_fingerprint(str(tree)) == before

    def test_skip_list_names_existing_modules(self):
        for entry in UNFINGERPRINTED:
            assert os.path.exists(os.path.join(PACKAGE_ROOT, entry.rstrip("/"))), entry

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CODE_VERSION", "pinned")
        assert current_code_version() == "pinned"


class TestFingerprintedRegistries:
    def test_every_registered_component_is_fingerprinted(self):
        """Built-in results are decided only by fingerprinted code, so an
        edit to any of them invalidates cached records and rows."""
        ensure_registered()
        components = {
            f"{registry.kind} {name!r}": registry.get(name)
            for registry in (PROTOCOLS, GRAPHS, GRAPH_TRANSFORMS, SCHEDULERS, AGGREGATORS)
            for name in registry.names()
        }
        for name in ENGINES.names():
            components[f"engine {name!r}"] = ENGINES.get(name).run_one
        for name in EXPERIMENTS.names():
            experiment = EXPERIMENTS.get(name)
            if isinstance(experiment, DriverExperiment):
                components[f"driver of {name!r}"] = experiment.resolve()
        assert len(components) > 40
        outside = sorted(label for label, obj in components.items() if not fingerprinted(obj))
        assert outside == []

    def test_code_outside_the_tree_is_not_fingerprinted(self):
        def user_aggregator(records):
            return []

        assert not fingerprinted(user_aggregator)
        assert not fingerprinted(len)

    def test_unfingerprinted_module_is_not_fingerprinted(self):
        from repro.cli import main

        assert not fingerprinted(main)
