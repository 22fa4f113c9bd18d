from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from dataclasses import replace

import pytest

from sspsim.model import (
    LinkBlock,
    MatchingWeights,
    PreferenceTable,
    Scenario,
    SSPConfig,
    Subscriber,
    SubscriberKind,
)


def preference_table(ranks: Mapping[str, Mapping[str, object]]) -> PreferenceTable:
    """The table of ``{consumer id: {supplier id: rank}}``: its header lists each
    supplier once, in order of first appearance, and a row holds None where
    its consumer ranks no supplier."""
    suppliers = tuple(dict.fromkeys(s for row in ranks.values() for s in row))
    return PreferenceTable.from_rows(suppliers, {c: [row.get(s) for s in suppliers] for c, row in ranks.items()})


def link_block(rows: Mapping[str, Mapping[str, object]]) -> LinkBlock:
    """The block of ``{row id: {column id: link}}``: its header lists each
    column once, in order of first appearance, and a row holds 0 where it
    lists no column."""
    header = tuple(dict.fromkeys(c for cols in rows.values() for c in cols))
    return LinkBlock.from_rows(header, {r: [cols.get(c, 0) for c in header] for r, cols in rows.items()})


def linked(rows: Mapping[str, Mapping[str, object]], ssps: Sequence[SSPConfig]) -> tuple[tuple[SSPConfig, ...], LinkBlock]:
    """``ssps`` each with the block of its consumers' rows of ``{row id: {column
    id: link}}`` attached, and the SSP block of every other row, in the order
    ``Scenario`` takes them; an SSP without a row has an empty block."""
    home = {c.id: cfg.id for cfg in ssps for c in cfg.consumers}
    grouped: dict[str | None, dict] = {None: {}, **{cfg.id: {} for cfg in ssps}}
    for row_id, cols in rows.items():
        grouped[home.get(row_id)][row_id] = cols
    return tuple(replace(cfg, links=link_block(grouped[cfg.id])) for cfg in ssps), link_block(grouped[None])


def link_rows(scenario: Scenario) -> dict[str, dict[str, int]]:
    """The links of ``scenario`` as ``{row id: {column id: link}}``: the SSP block's rows, then each SSP's."""
    blocks = (scenario.ssp_links, *(cfg.links for cfg in scenario.ssps))
    return {row_id: dict(zip(block.cols, values)) for block in blocks for row_id, values in block.to_rows().items()}


def worked_example_subscribers():
    consumers = (
        Subscriber("AC1", SubscriberKind.ACTIVE_CONSUMER, 13.5, priority=0.25),
        Subscriber("AC2", SubscriberKind.ACTIVE_CONSUMER, 18.0, priority=0.25),
        Subscriber("AC3", SubscriberKind.ACTIVE_CONSUMER, 13.5, priority=0.25),
        Subscriber("PC1", SubscriberKind.PASSIVE_CONSUMER, 12.0, bound=0.2, priority=0.25),
    )
    producers = (
        Subscriber("AP1", SubscriberKind.ACTIVE_PRODUCER, 30.0),
        Subscriber("AP2", SubscriberKind.ACTIVE_PRODUCER, 12.0),
        Subscriber("PP1", SubscriberKind.PASSIVE_PRODUCER, 10.0, bound=0.3),
    )
    return consumers, producers


@pytest.fixture
def worked_scenario() -> Scenario:
    """Worked single-SSP example: 57 kWh demand (12 of it cuttable by 20%)
    against 52 kWh supply (10 of it stretchable by 30%)."""
    consumers, producers = worked_example_subscribers()
    prefs = preference_table({c.id: {"AP1": 1, "AP2": 2, "PP1": 3} for c in consumers})
    rows = {c.id: {"AP1": 1, "AP2": 1, "PP1": 1, "U": 1} for c in consumers}
    return Scenario(*linked(rows, (SSPConfig("S1", consumers, producers, prefs),)), MatchingWeights(), None, 3)


@pytest.fixture
def pair_scenario() -> Scenario:
    """Two complementary SSPs: S1 is 5 kWh short, S2 has 5 kWh spare."""
    s1 = SSPConfig(
        "S1",
        (Subscriber("S1.C1", SubscriberKind.ACTIVE_CONSUMER, 10.0, priority=1.0),),
        (Subscriber("S1.P1", SubscriberKind.ACTIVE_PRODUCER, 5.0),),
        preference_table({"S1.C1": {"S1.P1": 1, "S2": 2}}),
    )
    s2 = SSPConfig(
        "S2",
        (Subscriber("S2.C1", SubscriberKind.ACTIVE_CONSUMER, 5.0, priority=1.0),),
        (Subscriber("S2.P1", SubscriberKind.ACTIVE_PRODUCER, 10.0),),
        preference_table({"S2.C1": {"S2.P1": 1, "S1": 2}}),
    )
    rows = {
        "S1.C1": {"S1.P1": 1, "U": 1},
        "S2.C1": {"S2.P1": 1, "U": 1},
        "S1": {"S2": 1},
        "S2": {"S1": 1},
    }
    return Scenario(*linked(rows, (s1, s2)), MatchingWeights(), None, 7)


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if getattr(report, "when", "call") == "call" and "test_acceptance" in nodeid:
                rows.append((nodeid.split("::")[-1], status))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            flag = "PASS" if status == "passed" else "FAIL"
            terminalreporter.write_line(f"{flag}  {name}")
