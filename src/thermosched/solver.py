"""Exact maximum-throughput solver.

The search holds every temperature as a scaled integer. Write R = p/q
in lowest terms, let D be the lcm of the denominators of T and of every
heat, let H be the horizon and w[t] = p^t·q^(H-t). At slot boundary t a
temperature tau is held as the integer V = tau·D·w[t]; a heat h and the
threshold T are held as h·D and T·D, integers because D clears their
denominators. An idle slot takes tau to tau·q/p and w[t] to
w[t+1] = w[t]·p/q, so V stays as it is. A job of heat h at slot t takes
V to V + h·D·w[t], so from 0 every V is a sum of integers and no step
divides. w[t+1] is positive, so the job is admissible iff
V + h·D·w[t] <= T·D·w[t+1]. At one slot V is a positive multiple of
tau, so comparing V's there compares temperatures exactly.

solve_optimal() is a depth-first branch-and-bound over the slots: at
each slot it tries every admissible pending job and then idling, keeps
the best complete schedule found, and prunes with

  * an upper bound: completions so far plus the smaller of the jobs
    still alive, in reach and not done, and the slots left. A node
    computes the bound of each child and pushes only the children whose
    bound beats the incumbent; a pushed node carries its bound and is
    checked again when it is popped, since the incumbent may have
    improved,
  * reach: a job that even the coolest continuation cannot admit is
    left out of that bound. Idling is the coolest continuation, since
    heats are non-negative and the step is monotone in the temperature,
    and a job with deadline d can run at the latest in slot f = d - 1.
    In the scaled integers (above) idling leaves V unchanged, so the
    job is in reach from V at any slot up to f iff
    V + h·D·w[f] <= T·D·w[f+1], i.e. V <= c_j = T·D·w[f+1] - h·D·w[f]:
    one exact integer per job. A node looks up the cuts once, for its
    idle child's temperature: every child is at least as hot, so a job
    out of the idle child's reach is out of every child's,
  * state dominance: two search states at the same slot with the same
    set of completed still-alive jobs are comparable, and the one with
    at least as many completions and a temperature at most as high can
    only do better from here on (cooler is never worse, since lowering
    the temperature preserves every later admissibility check). A child
    is entered in the memo of its slot when it is generated, and it is
    pushed only if no entry with its key dominates it, and
  * two exchange rules. A node at slot t does not branch on a job j
    that was pending at t - 1 (r_j <= t - 1) and admissible there when
    (a) slot t - 1 was idle: j at t - 1 and idle at t end no hotter,
        and since idling keeps V, j fits at t - 1 iff
        V + h_j·D·w[t-1] <= T·D·w[t], or
    (b) slot t - 1 ran a job k with h_k < h_j that is still pending at
        t (d_k > t): j at t - 1 and k at t end no hotter, because
        (tau + h_j)/R + h_k <= (tau + h_k)/R + h_j when R > 1, and j
        fits at t - 1 iff V - h_k·D·w[t-1] + h_j·D·w[t-1] <= T·D·w[t].
    Either swap keeps the done set and the count, and the swapped run
    fits at slot t because it ends no hotter than the forbidden one.

Expired jobs drop out of the dominance key because they cannot affect
the future; their count is kept in the Pareto value instead.

Why the pruning is exact. Take the search without the exchange rules
and the memo (twins still in order). By induction over slots, each of
its states at slot t is either dominated by a state the search expands
(same key, at least as many completions, V no higher) or cannot beat
the final incumbent. For t + 1, let S at t be dominated by the expanded
S' and let e be the entry of slot t. S' can take e too, and its child
dominates S's. That child is cut by its bound, dominated by a memo
entry (which was pushed, so it is expanded or cut by its bound), pushed
itself, or forbidden by a rule. A forbidden child equals or is
dominated by a state with j at t - 1 (a state at slot t, covered by the
induction) and entry e' at t: idle under (a), which no rule forbids,
and k under (b), which is strictly cooler than j. Repeating the step on
e' ends, since heats cannot fall forever, so every state at t + 1 is
covered. The swap keeps the twin order, because j and k differ in heat
and j's predecessor ran before slot t - 1. Equal heats are never
swapped: two jobs of one heat that are not twins would forbid each
other's order.

The search order does the rest. Jobs branch earliest deadline first
and, among equal deadlines, hottest first, so the hot jobs that fit
only while the processor is cool are tried while it is, and a full or
near-full incumbent turns up early. Twins (jobs with the same release,
deadline and heat) are interchangeable, so a twin may run only after
its predecessor in branching order has run; this cuts the permutations
of the identical gadget jobs of the hardness reductions. Dominance
stays sound because states with the same done-mask face the same twin
order and twins expire together. Jobs hotter than R·T can never run
and are dropped before the search.

The search runs on the scaled integers above: the memo, the Pareto
fronts, the reach cuts and the threshold test compare integers, and no
Fraction arithmetic runs, not even to build them. The search loop steps
inline and tests admissibility on the sum. The search keeps its own
stack instead of recursing, so a long horizon does not hit Python's
recursion limit; it visits nodes in the same pre-order as the
recursion would.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Optional

from .model import Instance, Schedule


@dataclass(frozen=True)
class OptResult:
    """Outcome of solve_optimal.

    witness re-simulates violation-free with exactly best_throughput
    completions. explored counts the search nodes popped. A child whose
    bound cannot beat the incumbent, that an exchange rule forbids or
    that a memo entry dominates is never pushed, so it is not counted.
    proven_optimal is False only when a node budget was hit, in which
    case best_throughput is a lower bound.
    """

    best_throughput: int
    witness: Schedule
    explored: int
    proven_optimal: bool


def solve_optimal(instance: Instance, budget: Optional[int] = None) -> OptResult:
    """Exact maximum throughput and a witness schedule.

    budget caps the number of search nodes; when it is hit the best
    schedule found so far is returned with proven_optimal=False.
    Raises ValueError on a budget that is not a non-negative int (a
    bool is not).
    """
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"budget must be a non-negative int, got {budget!r}")
    jobs = instance.jobs
    horizon = instance.horizon
    # D, w[t], T·D and every h·D of the scaled integers (see the module
    # docstring). Each denominator divides D, so no Fraction product is needed.
    T, R = instance.config.threshold, instance.config.cooling_factor
    D = math.lcm(T.denominator, *(job.heat.denominator for job in jobs))
    p, q = R.numerator, R.denominator
    weights = [p**t * q ** (horizon - t) for t in range(horizon + 1)]
    scaled_threshold = T.numerator * (D // T.denominator)
    # limit[t] = T·D·w[t]: a temperature at slot boundary t fits iff V <= limit[t].
    limit = [scaled_threshold * w for w in weights]
    heats = [job.heat.numerator * (D // job.heat.denominator) for job in jobs]
    # cut[i] = c_j = T·D·w[f+1] - h·D·w[f] with f = d - 1 (see "reach" above).
    # Every V is at least 0, so a job with c_j < 0, i.e. h > R·T, never
    # runs and is left out.
    cut = [limit[j.deadline] - h * weights[j.deadline - 1] for j, h in zip(jobs, heats)]
    # Branch earliest-deadline-first and, among equal deadlines, hottest
    # first: hot jobs fit only while the processor is cool, so good
    # incumbents come early and prune more.
    order = sorted(
        (i for i in range(len(jobs)) if cut[i] >= 0),
        key=lambda i: (jobs[i].deadline, -heats[i], jobs[i].id),
    )
    # Twins (same release, deadline and heat) are interchangeable, so they
    # run only in branching order: need[i] is the bit of i's previous twin.
    need, last = {}, {}
    for i in order:
        twin = (jobs[i].release, jobs[i].deadline, heats[i])
        need[i], last[twin] = last.get(twin, 0), 1 << i
    # pending[t]: the row (bit, need, h·D, id, release, deadline) of each
    # job pending at slot t, in reverse branching order, because children
    # are pushed on a stack. A job's one row is shared by its whole window.
    # ending[f]: the bits of the jobs whose last slot is f.
    pending: list[list[tuple[int, int, int, int, int, int]]] = [[] for _ in range(horizon)]
    ending = [0] * (horizon + 1)
    for i in reversed(order):
        job = jobs[i]
        row = (1 << i, need[i], heats[i], job.id, job.release, job.deadline)
        for t in range(job.release, job.deadline):
            pending[t].append(row)
        ending[job.deadline - 1] |= 1 << i
    # alive[t]: the jobs with a slot at t or later.
    alive = [*accumulate(reversed(ending), or_)]
    alive.reverse()
    # cuts ascending and reach[n]: the bits of the jobs from position n on,
    # so reach[bisect_left(cuts, v)] holds every job in reach from v.
    ranked = sorted((cut[i], 1 << i) for i in order)
    cuts = [c for c, _ in ranked]
    reach = [*accumulate([bit for _, bit in reversed(ranked)], or_, initial=0)]
    reach.reverse()
    # The search stops when explored reaches stop; explored is at least 1 there.
    stop = 0 if budget is None else budget + 1
    best = 0
    best_slots: list[Optional[int]] = [None] * horizon
    # path[t + 1] is the entry of slot t on the way to the node being visited.
    path: list[Optional[int]] = [None] * (horizon + 1)
    # memo[time][unexpired done-mask] -> Pareto set of (count, V) of the
    # nodes pushed at time.
    memo: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(horizon + 1)]

    def undominated(time: int, key: int, count: int, s: int) -> bool:
        """Enter (count, s) in memo[time][key] unless an entry dominates it."""
        fronts = memo[time]
        pareto = fronts.get(key)
        if pareto is None:
            fronts[key] = [(count, s)]
            return True
        for c, v in pareto:
            if c >= count and v <= s:
                return False
        pareto[:] = [(c, v) for c, v in pareto if not (count >= c and s <= v)]
        pareto.append((count, s))
        return True

    explored = 0
    proven = True
    # Depth-first in pre-order: a node is (time, V, done-mask, count, entry
    # of slot time - 1, bound, heat h·D and deadline of that entry's job).
    # An idle entry has heat -1 and deadline horizon, so it is pending
    # throughout for the exchange rules; the root has deadline 0, since no
    # slot comes before it. A node's job children pop before its idle
    # child. bound = count + min(jobs alive, reachable and not done at time,
    # slots left) caps the completions of every schedule through the node.
    stack: list[tuple[int, int, int, int, Optional[int], int, int, int]] = [
        (0, 0, 0, 0, None, min(len(order), horizon), -1, 0)
    ]
    while stack:
        time, s, done, count, entry, bound, last_heat, last_deadline = stack.pop()
        explored += 1
        if explored == stop:
            proven = False
            break
        # Every node was pushed with bound > best, but best may have risen since.
        if bound <= best:
            continue
        path[time] = entry
        if time == horizon:
            # A leaf's bound is its count.
            best = count
            best_slots = path[1:]
            continue
        # A child that cannot beat the incumbent is never pushed. Heats are
        # non-negative, so every child is at least as hot as the idle child
        # and reaches no job that the idle child cannot reach. At the child,
        # rem jobs in the idle child's reach are not done and left slots
        # remain, so the idle child's bound is count + min(rem, left). A job
        # child completes one more; if its job stays alive, that job is among
        # the rem (it fits from s now, and idling only cools), so one fewer
        # is left:
        # count + 1 + min(rem - 1, left) = count + min(rem, left + 1);
        # if it expires, count + 1 + min(rem, left).
        child = time + 1
        alive_after = alive[child]
        rem = (reach[bisect_left(cuts, s)] & alive_after & ~done).bit_count()
        left = horizon - child
        idle_bound = count + (rem if rem < left else left)
        if idle_bound > best and undominated(child, done & alive_after, count, s):
            stack.append((child, s, done, count, None, idle_bound, -1, horizon))
        # No job child's bound exceeds idle_bound + 1, so skip the scan when that cannot win.
        if idle_bound >= best:
            stays_bound = count + (rem if rem <= left else left + 1)
            weight, cap = weights[time], limit[child]
            # The exchange rules forbid a job that was pending at time - 1
            # with a heat h in (lo, hi]. After an idle slot (lo = -1) that is
            # every h with s + h·w[time-1] <= limit[time]; after a job k that
            # is still pending (lo = h_k), every hotter h with
            # s + (h - h_k)·w[time-1] <= limit[time]. Else it is empty.
            lo = hi = -1
            if last_deadline > time:
                lo = last_heat
                hi = (limit[time] - s) // weights[time - 1] + (lo if lo > 0 else 0)
            for bit, prev, heat, job_id, release, deadline in pending[time]:
                if not done & bit and done & prev == prev:
                    # The job stays alive after this slot iff deadline > child,
                    # and was pending at time - 1 too iff release < time.
                    bound = stays_bound if deadline > child else idle_bound + 1
                    if bound > best and not (release < time and lo < heat <= hi):
                        # The scaled step, admissible iff it stays at most T·D·w[t+1].
                        after = s + heat * weight
                        if after <= cap and undominated(
                            child, (done | bit) & alive_after, count + 1, after
                        ):
                            stack.append(
                                (child, after, done | bit, count + 1, job_id, bound, heat, deadline)
                            )
    return OptResult(
        best_throughput=best,
        witness=Schedule(tuple(best_slots)),
        explored=explored,
        proven_optimal=proven,
    )

