"""MSG rule conformance: fixture protocol + real-tree regressions.

The fixture suite models a miniature protocol layer (one WIRE_FORMATS
declaration, one TypedDict payload, one handler class) and mutates it
the ways protocol drift actually happens: a handler registration is
deleted, a payload field is misspelt, an undeclared kind is sent.
Every mutation must be caught by the *real* analyzer entry points
(``lint_sources`` / ``collect_wire_registry``), not a re-implementation.

The regression tests at the bottom pin two hazards the analyzer found
in the real tree (both fixed): the ``mv_rsp`` reply kind was sent but
never declared in WIRE_FORMATS, and the ``dgcc_sched`` payload dict was
built untyped so its shape was invisible to conformance checking.
Each test re-introduces the hazard into the real sources and asserts
the analyzer still catches it.
"""

from pathlib import Path

import textwrap

from repro.lint import lint_sources

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Miniature protocol layer: declaration side.
MESSAGES_FIXTURE = """\
from typing import NamedTuple, Tuple, TypedDict


class PingPayload(TypedDict):
    txn: int
    page: str


class PongPayload(TypedDict):
    txn: int


class WireFormat(NamedTuple):
    payload: type
    handled_by: Tuple[str, ...]


WIRE_FORMATS = {
    "ping": WireFormat(PingPayload, ("Coordinator",)),
    "pong": WireFormat(PongPayload, ()),
}
"""

#: Miniature protocol layer: conformant use side.
PROTOCOL_FIXTURE = """\
class Coordinator:
    def __init__(self, comm):
        self.comm = comm
        self.comm.register_handler("ping", self._on_ping)

    def _on_ping(self, payload):
        pong: PongPayload = {"txn": payload["txn"]}
        self.comm.send(0, "pong", pong)

    def poke(self, node, txn):
        payload: PingPayload = {"txn": txn, "page": "p0"}
        self.comm.send(node, "ping", payload)
"""


def lint_fixture(protocol_source, messages_source=MESSAGES_FIXTURE):
    findings, _files = lint_sources(
        [
            ("proto/messages.py", messages_source),
            ("proto/coordinator.py", textwrap.dedent(protocol_source)),
        ]
    )
    return findings


def rules(findings):
    return [f.rule for f in findings]


class TestFixtureProtocolConformance:
    def test_conformant_protocol_is_clean(self):
        assert lint_fixture(PROTOCOL_FIXTURE) == []

    def test_deleting_the_handler_registration_fires_msg003(self):
        mutated = PROTOCOL_FIXTURE.replace(
            '        self.comm.register_handler("ping", self._on_ping)\n', ""
        )
        assert mutated != PROTOCOL_FIXTURE
        findings = lint_fixture(mutated)
        assert rules(findings) == ["MSG003"]
        (finding,) = findings
        # Anchored at the class definition, naming the missing kind.
        assert finding.path == "proto/coordinator.py"
        assert finding.line == 1
        assert "Coordinator" in finding.message
        assert "'ping'" in finding.message

    def test_misspelt_payload_field_fires_msg002(self):
        mutated = PROTOCOL_FIXTURE.replace('"page": "p0"', '"pages": "p0"')
        findings = lint_fixture(mutated)
        assert rules(findings) == ["MSG002", "MSG002"]
        messages = " / ".join(f.message for f in findings)
        assert "missing required" in messages and "page" in messages
        assert "not declared" in messages and "pages" in messages

    def test_dropped_required_field_fires_msg002(self):
        mutated = PROTOCOL_FIXTURE.replace(', "page": "p0"', "")
        findings = lint_fixture(mutated)
        assert rules(findings) == ["MSG002"]
        assert "missing required" in findings[0].message
        assert "page" in findings[0].message

    def test_wrong_payload_annotation_fires_msg002(self):
        mutated = PROTOCOL_FIXTURE.replace(
            "payload: PingPayload =", "payload: PongPayload ="
        )
        findings = lint_fixture(mutated)
        assert "MSG002" in rules(findings)
        assert any(
            "annotated as PongPayload" in f.message
            and "declares PingPayload" in f.message
            for f in findings
        )

    def test_sending_an_undeclared_kind_fires_msg001(self):
        mutated = PROTOCOL_FIXTURE.replace('"ping", payload', '"pingg", payload')
        findings = lint_fixture(mutated)
        assert "MSG001" in rules(findings)
        assert any("'pingg'" in f.message for f in findings)

    def test_registering_for_an_undeclared_kind_fires_msg001(self):
        mutated = PROTOCOL_FIXTURE.replace(
            'register_handler("ping"', 'register_handler("ping2"'
        )
        findings = lint_fixture(mutated)
        assert "MSG001" in rules(findings)

    def test_registering_without_receiver_declaration_fires_msg003(self):
        # A second class registers for "ping" without being declared.
        extended = PROTOCOL_FIXTURE + textwrap.dedent(
            """\


            class Interloper:
                def __init__(self, comm):
                    self.comm = comm
                    self.comm.register_handler("ping", self._on_ping)

                def _on_ping(self, payload):
                    pass
            """
        )
        findings = lint_fixture(extended)
        assert rules(findings) == ["MSG003"]
        assert "Interloper" in findings[0].message

    def test_checks_are_skipped_without_a_wire_formats_declaration(self):
        findings, _files = lint_sources(
            [("proto/coordinator.py", PROTOCOL_FIXTURE)]
        )
        assert findings == []


def lint_real_cc(mutate=None):
    """Lint the real protocol layer, optionally mutating one file."""
    sources = []
    for rel in [
        "repro/cc/messages.py",
        "repro/cc/mvcc.py",
        "repro/cc/dgcc.py",
        "repro/cc/store.py",
        "repro/cc/store_locking.py",
        "repro/cc/partitions.py",
        "repro/cc/pcl.py",
    ]:
        path = REPO_SRC / rel
        text = path.read_text(encoding="utf-8")
        if mutate is not None:
            text = mutate(rel, text)
        sources.append((str(path), text))
    findings, _files = lint_sources(sources)
    return findings


class TestRealTreeRegressions:
    def test_real_protocol_layer_is_clean(self):
        assert [f for f in lint_real_cc() if f.rule.startswith("MSG")] == []

    def test_deleting_the_mv_rsp_declaration_is_caught(self):
        # Pre-fix state: mvcc.py sent "mv_rsp" replies that WIRE_FORMATS
        # never declared.
        def drop_mv_rsp(rel, text):
            if rel == "repro/cc/messages.py":
                mutated = text.replace(
                    '    "mv_rsp": WireFormat(LockResponsePayload, ()),\n', ""
                )
                assert mutated != text
                return mutated
            return text

        findings = [f for f in lint_real_cc(drop_mv_rsp) if f.rule == "MSG001"]
        assert findings, "undeclared mv_rsp send was not caught"
        assert all("mv_rsp" in f.message for f in findings)
        assert {f.path.rsplit("/", 1)[-1] for f in findings} == {"mvcc.py"}

    def test_misspelling_the_dgcc_sched_field_is_caught(self):
        # Pre-fix state: the dgcc_sched payload was an untyped dict, so
        # a field typo was invisible.  The fix annotated the send-site
        # local as DgccSchedPayload; misspelling the field now fires.
        def misspell_batch(rel, text):
            if rel == "repro/cc/dgcc.py":
                mutated = text.replace(
                    'sched: DgccSchedPayload = {"batch": self.batches}',
                    'sched: DgccSchedPayload = {"batches": self.batches}',
                )
                assert mutated != text
                return mutated
            return text

        findings = [
            f for f in lint_real_cc(misspell_batch) if f.rule == "MSG002"
        ]
        assert findings, "misspelt dgcc_sched payload field was not caught"
        messages = " / ".join(f.message for f in findings)
        assert "batch" in messages

    def test_deleting_a_real_handler_registration_is_caught(self):
        # Drop the first register_handler call in mvcc.py: the class is
        # still declared a receiver in WIRE_FORMATS, so MSG003 fires.
        def drop_first_registration(rel, text):
            if rel == "repro/cc/mvcc.py":
                lines = text.splitlines(keepends=True)
                for index, line in enumerate(lines):
                    if "register_handler(" in line:
                        indent = line[: len(line) - len(line.lstrip())]
                        lines[index] = f"{indent}pass\n"
                        return "".join(lines)
                raise AssertionError("no register_handler call in mvcc.py")
            return text

        findings = [
            f for f in lint_real_cc(drop_first_registration) if f.rule == "MSG003"
        ]
        assert findings, "deleted handler registration was not caught"
