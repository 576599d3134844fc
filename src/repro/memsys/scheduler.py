"""Memory-access scheduling policies.

Implements the controller policies the paper evaluates:

* :class:`FcfsScheduler` — oldest issuable request first.
* :class:`FrfcfsScheduler` — first-ready FCFS [Rixner et al., ISCA'00]:
  requests that would hit buffered data ("first ready") go first, oldest
  first within each class.  This is Table 2's scheduler.
* :class:`IncrementalFrfcfs` — the same ordering computed per bank
  (:class:`BankScanPolicy`: one scan per (queue, bank) group over the
  bank's memoized (kind, constraint) lookups, then a reduction over
  the per-bank winners) instead of classifying and sorting the whole
  queue; the default for FRFCFS configurations, with
  :class:`FrfcfsScheduler` kept as the reference oracle
  (``REPRO_SCHEDULER=reference`` forces it back on).
* The paper's **Multi-Issue** augmentation is not a different ordering —
  it is the same FRFCFS ranking applied to multiple command slots per
  cycle, so it is expressed through ``ControllerParams.issue_width``
  rather than a separate class; :func:`make_scheduler` maps the enum.

Beyond the paper, the related-work policies of the registry
(:mod:`repro.memsys.policies`) live here too, each as a (fast
implementation, brute-force oracle) pair sharing one ranking mixin:

* :class:`IncrementalPalp` / :class:`PalpReference` — PALP-style
  partition-level read/write overlap [Song, Das, Mutlu et al.]: among
  equally-aged candidates, reads targeting a bank with an in-flight
  background write go first, soaking up write latency the bank would
  otherwise serve alone.
* :class:`IncrementalRbla` / :class:`RblaReference` — Meza-style
  row-buffer-locality-aware ranking [Meza et al., CAL'12]: a per-bank
  saturating locality score (fed back from issued service kinds)
  breaks ties toward banks with hot row buffers.
* :class:`IncrementalFcfs` — FCFS through the same per-bank scans,
  with :class:`FcfsScheduler` as its oracle.

A policy ranks *issuable* candidates; the controller determines
issuability (bank resources, bus slots) and enforces read/write phase
policy.  Ranking never changes *which* candidates are issuable
(``earliest_start <= now`` is policy-independent), which is what keeps
the controller's quiet-cycle memo and event horizon valid for every
policy in the zoo.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Protocol, Sequence, Tuple

from ..config.params import SchedulerKind
from .request import SERVICE_ROW_HIT, SERVICE_WRITE, MemRequest


class BankLike(Protocol):
    """What a scheduler needs to know about a bank."""

    def is_row_hit(self, req: MemRequest) -> bool: ...
    def earliest_start(self, req: MemRequest, now: int) -> int: ...


#: A schedulable candidate: the request plus its target bank model.
Candidate = Tuple[MemRequest, BankLike]


class SchedulingPolicy:
    """Base class: rank issuable candidates, best first."""

    name = "base"

    def rank(self, candidates: Sequence[Candidate], now: int
             ) -> List[Candidate]:
        raise NotImplementedError

    def pick(self, candidates: Sequence[Candidate], now: int
             ) -> Optional[Candidate]:
        """Best candidate, or None when nothing is issuable."""
        ranked = self.rank(candidates, now)
        return ranked[0] if ranked else None


class FcfsScheduler(SchedulingPolicy):
    """Oldest-first among issuable requests.

    (Strict FCFS that refuses to reorder around a blocked head request
    would deadlock against long PCM writes; like NVMain we use the
    conventional relaxed form — oldest *issuable* first.)
    """

    name = "fcfs"

    def rank(self, candidates: Sequence[Candidate], now: int
             ) -> List[Candidate]:
        issuable = [
            cand for cand in candidates
            if cand[1].earliest_start(cand[0], now) <= now
        ]
        issuable.sort(key=lambda cand: (cand[0].arrival_cycle,
                                        cand[0].req_id))
        return issuable


class FrfcfsScheduler(SchedulingPolicy):
    """First-ready (row-hit) requests first, then oldest-first."""

    name = "frfcfs"

    def rank(self, candidates: Sequence[Candidate], now: int
             ) -> List[Candidate]:
        issuable = [
            cand for cand in candidates
            if cand[1].earliest_start(cand[0], now) <= now
        ]
        issuable.sort(
            key=lambda cand: (
                not cand[1].is_row_hit(cand[0]),
                cand[0].arrival_cycle,
                cand[0].req_id,
            )
        )
        return issuable


#: "Never by the passage of time alone": the end of a summary window with
#: no blocked request, and the controller's quiet-cycle memo when only
#: an enqueue can create issuable work.
FAR_FUTURE = 1 << 62


class BankSummary(NamedTuple):
    """One bank's scan over one queue's requests for it, at cycle ``at``.

    Constraints are now-independent and change only when the bank
    issues, so the issuable set — and with it ``winner`` — stays the
    same for every ``now`` in ``[at, until)``: ``until`` is the earliest
    constraint among the blocked requests (:data:`FAR_FUTURE` when none
    is blocked).  ``min_constraint`` is the group's now-independent
    minimum, valid until the group or the bank changes.
    """

    at: int
    until: int
    #: Best issuable request under the policy's within-bank order.
    winner: Optional[MemRequest]
    #: Whether ``winner`` is a row hit.
    hit: bool
    #: The policy's ``scan_key`` for ``winner`` at cycle ``at``.
    key: Optional[tuple]
    min_constraint: int


class KeyedPolicy(SchedulingPolicy):
    """A policy defined by one ranking key over issuable candidates.

    The brute-force oracle base: ``rank`` filters issuable candidates
    and sorts them by :meth:`scan_key`.  Classification deliberately
    goes through the protocol pair (``is_row_hit`` / ``earliest_start``),
    not the banks' memo, so a sorting oracle is an independent second
    opinion on the fast policy's memoized scans.
    """

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        raise NotImplementedError

    def rank(self, candidates: Sequence[Candidate], now: int
             ) -> List[Candidate]:
        issuable = [
            cand for cand in candidates
            if cand[1].earliest_start(cand[0], now) <= now
        ]
        issuable.sort(key=lambda cand: self.scan_key(
            cand[0], cand[1], cand[1].is_row_hit(cand[0]), now
        ))
        return issuable


class BankScanPolicy(KeyedPolicy):
    """Incremental policies: per-bank winners reduced across banks.

    :meth:`summarize` scans one bank's requests from one queue in the
    policy's within-bank order; :meth:`reduce` picks the best per-bank
    winner by :meth:`scan_key`.  The two orders agree inside such a
    group — PALP's overlap term and RBLA's locality score are constant
    over one bank's reads or one bank's writes — so the per-bank winner
    is also the group's key-minimal candidate.  The controller memoizes
    the summaries per (queue, bank); see :class:`BankSummary` for how
    long one stays valid.
    """

    #: Controllers key their fast paths off this flag.
    incremental = True

    #: Within-bank order: ``(not hit, arrival, req_id)`` when True (the
    #: FRFCFS family), ``(arrival, req_id)`` when False (FCFS).
    hit_first = True

    #: ``scan_key`` reads neither ``now`` nor policy state, so a
    #: summary's cached ``key`` stays the cross-bank key while the
    #: summary is valid.
    static_key = True

    def summarize(self, reqs: Sequence[MemRequest], bank: BankLike,
                  now: int) -> BankSummary:
        """Scan one bank's requests (all reads or all writes) at ``now``.

        Per-request classification goes through the bank's
        :meth:`~repro.core.fgnvm_bank.FgNvmBank.kind_and_constraint`
        memo; banks without that API (scriptable test doubles) fall back
        to the protocol's ``is_row_hit``/``earliest_start`` pair.
        """
        lookup = getattr(bank, "kind_and_constraint", None)
        hit_first = self.hit_first
        best: Optional[MemRequest] = None
        best_hit = False
        best_arrival = 0
        best_id = 0
        blocked = FAR_FUTURE
        min_c = FAR_FUTURE
        for req in reqs:
            if lookup is not None:
                kind, constraint = lookup(req)
                hit = kind == SERVICE_ROW_HIT or kind == SERVICE_WRITE
            else:
                constraint = bank.earliest_start(req, now)
                hit = bank.is_row_hit(req)
            if constraint < min_c:
                min_c = constraint
            if constraint > now:
                if constraint < blocked:
                    blocked = constraint
                continue
            if best is None:
                take = True
            elif hit_first and hit != best_hit:
                take = hit
            elif req.arrival_cycle != best_arrival:
                take = req.arrival_cycle < best_arrival
            else:
                take = req.req_id < best_id
            if take:
                best = req
                best_hit = hit
                best_arrival = req.arrival_cycle
                best_id = req.req_id
        key = (self.scan_key(best, bank, best_hit, now)
               if best is not None else None)
        return BankSummary(now, blocked, best, best_hit, key, min_c)

    def reduce(self, summaries: "Sequence[Tuple[BankLike, BankSummary]]",
               now: int) -> "Tuple[Optional[Candidate], Optional[int]]":
        """(best per-bank winner, earliest blocked constraint).

        The second element is the soonest cycle any *currently blocked*
        request could become issuable — ``None`` when nothing is
        blocked — which the controller uses to memoize quiet cycles.
        """
        best: Optional[MemRequest] = None
        best_bank: Optional[BankLike] = None
        best_key: Optional[tuple] = None
        blocked = FAR_FUTURE
        static = self.static_key
        for bank, summary in summaries:
            if summary.until < blocked:
                blocked = summary.until
            winner = summary.winner
            if winner is None:
                continue
            key = summary.key if static else self.scan_key(
                winner, bank, summary.hit, now
            )
            if best_key is None or key < best_key:
                best = winner
                best_bank = bank
                best_key = key
        return (
            (best, best_bank) if best is not None else None,
            blocked if blocked != FAR_FUTURE else None,
        )

    def pick(self, candidates: Sequence[Candidate], now: int
             ) -> Optional[Candidate]:
        return self.pick_with_horizon(candidates, now)[0]

    def pick_with_horizon(self, candidates: Sequence[Candidate], now: int
                          ) -> "Tuple[Optional[Candidate], Optional[int]]":
        """:meth:`reduce` over fresh summaries of a flat candidate list.

        Candidates are grouped per (bank, is-write), the shape of the
        controller's per-queue bank groups; the winner comes back as the
        caller's own candidate object.
        """
        groups: dict = {}
        owner: dict = {}
        for cand in candidates:
            req, bank = cand
            owner[id(req)] = cand
            group = groups.setdefault((id(bank), req.is_write), (bank, []))
            group[1].append(req)
        best, blocked = self.reduce(
            [(bank, self.summarize(reqs, bank, now))
             for bank, reqs in groups.values()],
            now,
        )
        return (owner[id(best[0])] if best is not None else None), blocked


class IncrementalFrfcfs(BankScanPolicy, FrfcfsScheduler):
    """FRFCFS through per-bank summaries; oracle :class:`FrfcfsScheduler`.

    Picks the same candidate as ``FrfcfsScheduler.rank(...)[0]``: the
    minimum of ``(not is_row_hit, arrival_cycle, req_id)`` over the
    issuable candidates.
    """

    name = "frfcfs-incremental"

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        return (not hit, req.arrival_cycle, req.req_id)


class FcfsRanking:
    """Arrival order, req_id tie-break — the FCFS key."""

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        return (req.arrival_cycle, req.req_id)


class IncrementalFcfs(FcfsRanking, BankScanPolicy, FcfsScheduler):
    """FCFS through per-bank summaries; oracle :class:`FcfsScheduler`."""

    name = "fcfs-incremental"
    hit_first = False


def _active_writes(bank: BankLike, now: int) -> int:
    """Writes in flight in ``bank`` (0 for models without the query)."""
    probe = getattr(bank, "active_writes", None)
    return probe(now) if probe is not None else 0


class PalpRanking:
    """PALP key: row hits, then reads overlapping an in-flight write.

    The overlap bonus models PALP's partition-level parallelism [Song,
    Das, Mutlu et al.]: a read that can proceed in a different partition
    (SAG/CD tile) of a bank already serving a background write turns
    otherwise-serialised write latency into overlapped work, so among
    equally-ready candidates those reads issue first.  Banks without an
    ``active_writes`` query (baseline-style models, test doubles) never
    report overlap and the ranking degenerates to plain FRFCFS.
    """

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        overlap = req.is_read and _active_writes(bank, now) > 0
        return (not hit, not overlap, req.arrival_cycle, req.req_id)


class PalpReference(PalpRanking, KeyedPolicy):
    """Sort-based PALP oracle."""

    name = "palp-reference"


class IncrementalPalp(PalpRanking, BankScanPolicy):
    """Per-bank-summary PALP; oracle: :class:`PalpReference`."""

    name = "palp"
    #: The overlap term follows in-flight writes, which end with time.
    static_key = False


#: Saturation ceiling for the per-bank locality score.
_RBLA_MAX_SCORE = 7

#: Service kinds that count as row-buffer hits for the locality score.
_HIT_KINDS = (SERVICE_ROW_HIT, SERVICE_WRITE)


class RblaState:
    """Per-bank saturating row-buffer-locality score [Meza et al.].

    The controller feeds issued service kinds back through
    :meth:`note_issued`; a hit bumps the target bank's score (saturating
    at ``_RBLA_MAX_SCORE``), a miss halves it.  Both the fast policy and
    its oracle carry this state, and the controller notifies whichever
    is installed, so a forced-oracle run sees the identical score
    evolution — a precondition for end-to-end differential identity.
    """

    def __init__(self):
        #: bank identity -> saturating locality score.
        self._locality: dict = {}

    def locality(self, bank: BankLike) -> int:
        return self._locality.get(id(bank), 0)

    def note_issued(self, req: MemRequest, bank: BankLike,
                    kind: str) -> None:
        key = id(bank)
        score = self._locality.get(key, 0)
        if kind in _HIT_KINDS:
            score = min(score + 1, _RBLA_MAX_SCORE)
        else:
            score //= 2
        self._locality[key] = score

    def scan_key(self, req: MemRequest, bank: BankLike, hit: bool,
                 now: int) -> tuple:
        return (not hit, -self.locality(bank), req.arrival_cycle,
                req.req_id)


class RblaReference(RblaState, KeyedPolicy):
    """Sort-based RBLA oracle (stateful: see :class:`RblaState`)."""

    name = "rbla-reference"


class IncrementalRbla(RblaState, BankScanPolicy):
    """Per-bank-summary RBLA; oracle: :class:`RblaReference`."""

    name = "rbla"
    #: The locality score moves with ``note_issued`` feedback.
    static_key = False


#: Environment override for the scheduler implementation (differential
#: CI runs): ``reference`` / ``oracle`` force the selected policy's
#: brute-force oracle, a registered policy name forces that policy's
#: fast implementation, and the legacy aliases ``frfcfs`` /
#: ``incremental`` map onto the FRFCFS pair.  Resolution lives in
#: :func:`repro.memsys.policies.resolve_scheduler`.
SCHEDULER_ENV = "REPRO_SCHEDULER"


def make_scheduler(kind: SchedulerKind,
                   policy: Optional[str] = None) -> SchedulingPolicy:
    """Instantiate the scheduler for a configuration.

    ``policy`` names a registry entry (:mod:`repro.memsys.policies`);
    ``None`` selects the ``kind``'s default pair.  The
    ``REPRO_SCHEDULER`` environment variable can force the oracle or a
    different registered policy — unknown values raise
    :class:`~repro.errors.SchedulerError` listing the registered names.
    """
    from .policies import resolve_scheduler_for

    return resolve_scheduler_for(kind, policy)
