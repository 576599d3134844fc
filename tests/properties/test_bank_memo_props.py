"""Property tests: the controller's per-bank scan memo is its oracle.

The controller keeps one :class:`~repro.memsys.scheduler.BankSummary`
per (queue, bank) group and rescans a group only when it gains or loses
a request, when its bank issues, or when ``now`` reaches the summary's
``until``.  Over random sequences of enqueues, issues and clock jumps on
a live controller (real banks, every registered policy, write caps of
none, one and two), every pass must agree with a from-scratch
reference:

* the memoized pick equals the policy oracle's top rank
  (``FrfcfsScheduler``, ``PalpReference``, ``RblaReference``,
  ``FcfsScheduler``) over the queue's uncapped candidates;
* the memoized horizon equals the earliest blocked earliest-start
  among those candidates (folded with the completion-heap head when a
  capped bank leaves nothing issuable);
* the min-constraint horizon equals the flat min over both queues;
* ``FgNvmBank.active_writes`` equals a direct count over the tile grid.

Clock jumps land exactly on cached ``until`` cycles, so passes where
``now`` crosses a summary's window end are covered, not just stumbled on.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import fgnvm
from repro.core.tile import KIND_WRITE
from repro.memsys.controller import MemoryController
from repro.memsys.policies import apply_policy, get_policy, policy_names
from repro.memsys.request import MemRequest, OpType
from repro.memsys.scheduler import FAR_FUTURE
from repro.memsys.stats import StatsCollector

#: Banks the generated requests target (a few, so groups run deep).
BANKS = 3
#: Two rows in each SAG and two columns in each CD of the 2x2 grid
#: below, so requests hit, miss and overlap across tiles.
ROWS = (0, 1, 32, 33)
COLS = (0, 1, 8, 9)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.booleans(),
                  st.integers(0, BANKS - 1), st.sampled_from(ROWS),
                  st.sampled_from(COLS)),
        st.tuples(st.just("advance"), st.integers(1, 40)),
        st.tuples(st.just("cross")),
        st.tuples(st.just("issue"), st.booleans()),
    ),
    min_size=1,
    max_size=40,
)

#: A write in flight in bank 0 lifts a younger read there (other SAG and
#: CD) above an older read in bank 1 under PALP; once the write ends,
#: with no request added and no issue since, the older read must win
#: again although bank 0's summary is still inside its window.
OVERLAP_ENDS = [
    ("enqueue", True, 0, 0, 0),
    ("issue", True),
    ("enqueue", False, 1, 0, 0),
    ("enqueue", False, 0, 32, 8),
    ("advance", 10),
    ("advance", 90),
]


def make_controller(policy, cap):
    cfg = fgnvm(2, 2)
    cfg.org.rows_per_bank = 64
    cfg = apply_policy(cfg, policy)
    cfg.controller.max_writes_per_bank = cap
    ctrl = MemoryController(cfg, StatsCollector())
    # Independent of REPRO_SCHEDULER: always the policy's fast side.
    ctrl.scheduler = get_policy(policy).fast()
    return ctrl


def direct_writes(bank, now):
    return bank.grid.active_cd_kinds(now).count(KIND_WRITE)


def check_queue(ctrl, oracle, queue, now):
    """Memoized pick and horizon of ``queue`` against the oracle."""
    cap = ctrl._write_cap if queue is ctrl.write_queue else None
    candidates = []
    capped = False
    for req in queue:
        bank = ctrl.banks[req.decoded.flat_bank]
        if cap is not None and direct_writes(bank, now) >= cap:
            capped = True
            continue
        candidates.append((req, bank))
    ranked = oracle.rank(candidates, now)
    blocked = [bank.earliest_start(req, now) for req, bank in candidates
               if bank.earliest_start(req, now) > now]
    expected = min(blocked) if blocked else None
    if not ranked and capped and ctrl._completions:
        head = ctrl._completions[0][0]
        expected = head if expected is None else min(expected, head)

    picked, horizon = ctrl._pick_fast(queue, now)
    if not ranked:
        assert picked is None
    else:
        assert picked[0] is ranked[0][0]
        assert picked[1] is ranked[0][1]
    assert horizon == expected
    return picked


def check_pass(ctrl, oracle, now):
    for bank in ctrl.banks[:BANKS]:
        assert bank.active_writes(now) == direct_writes(bank, now)
    picks = [check_queue(ctrl, oracle, queue, now)
             for queue in (ctrl.read_queue, ctrl.write_queue)]
    flat = [ctrl.banks[req.decoded.flat_bank].earliest_start(req, 0)
            for queue in (ctrl.read_queue, ctrl.write_queue)
            for req in queue]
    assert ctrl._recompute_min_constraint(now) == (
        min(flat) if flat else None
    )
    return picks


def next_window_end(ctrl, now):
    """The earliest cached ``until`` after ``now``, if any."""
    ends = [summary.until
            for queue in (ctrl.read_queue, ctrl.write_queue)
            for summary in queue.summaries.values()
            if now < summary.until < FAR_FUTURE]
    return min(ends) if ends else None


@pytest.mark.parametrize("policy", policy_names())
@pytest.mark.parametrize("cap", [None, 1, 2])
@given(ops=OPS)
@example(ops=OVERLAP_ENDS)
@settings(max_examples=40, deadline=None)
def test_memoized_pick_matches_oracle(policy, cap, ops):
    ctrl = make_controller(policy, cap)
    oracle = get_policy(policy).oracle()
    mapper = ctrl.mapper
    now = 0
    picks = check_pass(ctrl, oracle, now)
    for op in ops:
        if op[0] == "enqueue":
            _, is_write, bank, row, col = op
            kind = OpType.WRITE if is_write else OpType.READ
            if ctrl.has_space(kind):
                address = mapper.encode(bank=bank, row=row, col=col)
                ctrl.enqueue(MemRequest(kind, address), now)
        elif op[0] == "advance":
            now += op[1]
        elif op[0] == "cross":
            end = next_window_end(ctrl, now)
            if end is not None:
                now = end
        else:
            candidate = picks[1 if op[1] else 0]
            if candidate is not None:
                req, bank = candidate
                ctrl._issue(candidate, now)
                note = getattr(oracle, "note_issued", None)
                if note is not None:
                    note(req, bank, req.service_kind)
        ctrl._pop_completions(now)
        picks = check_pass(ctrl, oracle, now)
