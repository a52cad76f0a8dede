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
    pushed only if no entry with its key dominates it,
  * the equal-heat rule: a node at slot t branches on a job k only if
    every job j of k's heat that comes before k in branching order and
    is pending at t (r_j <= t < d_j) is done. Jobs of one heat step the
    temperature alike, so they run in branching order, and
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
the future; their count is kept in the Pareto value instead. The
equal-heat rule reads the done-mask only on jobs pending at t, which
are alive at t, so it depends on the key alone: two states with the
same key face the same rule at every later slot.

Why the pruning is exact. Say a state A at slot t covers a state B at
t when A has at least B's completions, a V no higher, and a one-to-one
map from B's undone alive jobs to A's that keeps the heat and sends
each job to one whose window from t on contains its own. Every
continuation of B then runs from A with each job replaced by its image,
at the same temperatures, so A can do at least as well and A's bound
caps B too. A state covers every state it dominates, by the identity
map. Take the search without the equal-heat rule, the exchange rules
and the memo. By induction over slots, each of its states at slot t is
either covered by a state the search expands or cannot beat the final
incumbent. For t + 1, let S at t be covered by the expanded S' and let
e be the entry of slot t. S' can take e's image e* too: e* is pending
at t, and it fits, since V' <= V and the heat is the same. If the
equal-heat rule forbids e*, S' takes the first job in branching order
of that heat that is pending at t and not done, which no rule forbids;
its deadline is at most e*'s, so relabeling it as e* shows that its
child covers the child of e*. Either way S' has a child that covers
S's. That child is cut by its bound, dominated by a memo entry (which
was pushed, so it is expanded or cut by its bound), pushed itself, or
forbidden by an exchange rule. A forbidden child runs j at t after
S', which its parent Q left by idling or by k at t - 1. It is covered
by the state that runs j at t - 1 from Q and e' at t: idle under (a),
which no rule forbids, and k under (b), which is strictly cooler than
j. If the equal-heat rule forbids j at t - 1, that state runs instead
the first job of j's heat in branching order that is pending at t - 1
and not done. That job expires at t, since otherwise it would be
pending and not done at S' and forbid j at t too; so the state's key at
t + 1 lacks only j, and it still covers the forbidden child. Its first
slot ends at a state at slot t, which the induction covers by an
expanded state (or it cannot beat the incumbent). That state takes
e''s image, or the first job of e''s heat as above, and the child
covers the forbidden one and runs idle or a job cooler than j at t. If
it is forbidden in turn, repeat the step; this ends, since heats
cannot fall forever, so every state at t + 1 is covered. At t = H, a
best schedule is covered by an expanded leaf or cannot beat the
incumbent, so the incumbent is optimal.

The search order does the rest. Jobs branch earliest deadline first
and, among equal deadlines, hottest first, so the hot jobs that fit
only while the processor is cool are tried while it is, and a full or
near-full incumbent turns up early. Among jobs of one heat this order
is deadline first, so the equal-heat rule runs them earliest deadline
first. It cuts the permutations of the identical gadget jobs of the
hardness reductions (twins, with the same release, deadline and heat)
and of equal-heat jobs whose windows differ. Jobs hotter than R·T can
never run and are dropped before the search.

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
    bound cannot beat the incumbent, whose job waits on an earlier job of
    its heat (the equal-heat rule), that an exchange rule forbids or that
    a memo entry dominates is never pushed, so it is not counted.
    proven_optimal is False only when the search hit its budget, in
    which case best_throughput is a lower bound and explored is
    budget + 1 (see solve_optimal).
    """

    best_throughput: int
    witness: Schedule
    explored: int
    proven_optimal: bool


def solve_optimal(instance: Instance, budget: Optional[int] = None) -> OptResult:
    """Exact maximum throughput and a witness schedule.

    The search expands at most budget nodes. If a node is left after
    them, the pop that finds it only detects the cap: the best schedule
    found so far is returned with proven_optimal=False and explored ==
    budget + 1.
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
    # For the equal-heat rule (above), earlier[i] holds the bits of the jobs
    # of i's heat that come before i in branching order.
    earlier, seen = {}, {}
    for i in order:
        earlier[i] = seen.get(heats[i], 0)
        seen[heats[i]] = earlier[i] | 1 << i
    # pending[t]: the row (bit, earlier, h·D, id, release, deadline) of each
    # job pending at slot t, in reverse branching order, because children
    # are pushed on a stack. A job's one row is shared by its whole window.
    # live[t]: the bits of the jobs pending at t. ending[f]: the bits of the
    # jobs whose last slot is f.
    pending: list[list[tuple[int, int, int, int, int, int]]] = [[] for _ in range(horizon)]
    live = [0] * horizon
    ending = [0] * (horizon + 1)
    for i in reversed(order):
        job, bit = jobs[i], 1 << i
        row = (bit, earlier[i], heats[i], job.id, job.release, job.deadline)
        for t in range(job.release, job.deadline):
            pending[t].append(row)
            live[t] |= bit
        ending[job.deadline - 1] |= bit
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
        # A child is pushed only if no entry of its slot's memo with its key
        # dominates it (has at least its count and at most its V); it then
        # replaces the entries it dominates.
        fronts = memo[child]
        if idle_bound > best:
            key = done & alive_after
            pareto = fronts.get(key)
            if pareto is None:
                pareto = fronts[key] = []
            for c, v in pareto:
                if c >= count and v <= s:
                    break
            else:
                if pareto:
                    pareto[:] = [(c, v) for c, v in pareto if c > count or v < s]
                pareto.append((count, s))
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
            # open_: the jobs pending now and not done. A job branches only if
            # no job of its heat before it in branching order is open.
            open_ = live[time] & ~done
            for bit, earlier, heat, job_id, release, deadline in pending[time]:
                if open_ & bit and not open_ & earlier:
                    # The job stays alive after this slot iff deadline > child,
                    # and was pending at time - 1 too iff release < time.
                    bound = stays_bound if deadline > child else idle_bound + 1
                    if bound > best and not (release < time and lo < heat <= hi):
                        # The scaled step, admissible iff it stays at most T·D·w[t+1].
                        after = s + heat * weight
                        if after > cap:
                            continue
                        key = (done | bit) & alive_after
                        pareto = fronts.get(key)
                        if pareto is None:
                            pareto = fronts[key] = []
                        for c, v in pareto:
                            if c > count and v <= after:
                                break
                        else:
                            if pareto:
                                pareto[:] = [
                                    (c, v) for c, v in pareto if c > count + 1 or v < after
                                ]
                            pareto.append((count + 1, after))
                            stack.append(
                                (child, after, done | bit, count + 1, job_id, bound, heat, deadline)
                            )
    return OptResult(
        best_throughput=best,
        witness=Schedule(tuple(best_slots)),
        explored=explored,
        proven_optimal=proven,
    )

