"""The benchmark's own reference algorithms, independent of lcnsyn.

Nothing here imports lcnsyn. A network is given as plain data: state
count ``n``, input count ``m``, the transition column list ``L``
(state-major, ``L[(x-1)*m + u-1]`` is the successor of state ``x`` under
input ``u``) and the output list ``H``, all 1-based as in lcnsyn's
network files.

Closed-loop observability is decided by Moore partition refinement, not
by lcnsyn's pair walk; candidate counts come from a plain brute-force
count; the candidate order is rebuilt from its definition (classes in
ascending output order, members ascending, successor values ascending,
injective inside each class).
"""

from __future__ import annotations

import math
import random


def random_network(seed: int, n: int, m: int, q: int) -> dict:
    """The generator of ``benchmarks/bench_backends.py``, as a network dict."""
    rng = random.Random(seed)
    L = [rng.randint(1, n) for _ in range(n * m)]
    H = [rng.randint(1, q) for _ in range(n)]
    return {"N": n, "M": m, "Q": q, "L": L, "H": H}


class Plain:
    """Just enough of lcnsyn's ``Lcn`` interface for ``tests/oracles.py``."""

    def __init__(self, net: dict) -> None:
        self.state_dim, self.input_dim = net["N"], net["M"]
        self._L, self._H = net["L"], net["H"]

    def step(self, x: int, u: int) -> int:
        return self._L[(x - 1) * self.input_dim + u - 1]

    def output(self, x: int) -> int:
        return self._H[x - 1]


def load(doc: dict) -> dict | None:
    """A network file's dict with ``H`` filled in (identity when omitted),
    or None when it is not a valid ``L``/``H`` network."""
    n, m, q, L = doc.get("N"), doc.get("M"), doc.get("Q"), doc.get("L")
    if not all(isinstance(v, int) and v > 0 for v in (n, m, q)) or not isinstance(L, list):
        return None
    H = doc.get("H", list(range(1, n + 1)) if q == n else None)
    if (H is None or len(L) != n * m or len(H) != n
            or not all(1 <= v <= n for v in L) or not all(1 <= v <= q for v in H)):
        return None
    return {"N": n, "M": m, "Q": q, "L": list(L), "H": list(H)}


def options(net: dict, x: int) -> list[int]:
    """Distinct successor columns of state ``x``'s block, ascending."""
    m = net["M"]
    return sorted(set(net["L"][(x - 1) * m:x * m]))


def output_classes(net: dict) -> list[list[int]]:
    """States grouped by output value, classes in ascending output order."""
    by_output: dict[int, list[int]] = {}
    for x, y in enumerate(net["H"], start=1):
        by_output.setdefault(y, []).append(x)
    return [by_output[y] for y in sorted(by_output)]


def injective_count(option_lists: list[list[int]]) -> int:
    """Ways to pick pairwise-distinct values, one from each list."""
    used: set[int] = set()

    def count(pos: int) -> int:
        if pos == len(option_lists):
            return 1
        total = 0
        for v in option_lists[pos]:
            if v not in used:
                used.add(v)
                total += count(pos + 1)
                used.discard(v)
        return total

    return count(0)


def class_counts(net: dict) -> list[int]:
    return [injective_count([options(net, x) for x in cls]) for cls in output_classes(net)]


def refined_bound(net: dict) -> int:
    return math.prod(class_counts(net))


def obstruction(net: dict) -> bool:
    """Two equal-output states whose blocks are the same constant map,
    or constant maps onto each other or onto themselves."""
    n, H = net["N"], net["H"]
    const = [opts[0] if len(opts) == 1 else None
             for opts in (options(net, x) for x in range(1, n + 1))]
    for j in range(1, n):
        for k in range(j + 1, n + 1):
            cj, ck = const[j - 1], const[k - 1]
            if H[j - 1] != H[k - 1] or cj is None or ck is None:
                continue
            if cj == ck or {cj, ck} == {j, k}:
                return True
    return False


def observable(net: dict) -> bool:
    """Open-loop observability: no equal-output pair of distinct states
    can stay indistinguishable forever. Greatest fixed point over pairs:
    keep a pair while some input sends it to a merge or a kept pair."""
    n, m, L, H = net["N"], net["M"], net["L"], net["H"]
    kept = {(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if H[i - 1] == H[j - 1]}
    changed = True
    while changed:
        changed = False
        for i, j in list(kept):
            for u in range(m):
                a, b = L[(i - 1) * m + u], L[(j - 1) * m + u]
                if a == b or (min(a, b), max(a, b)) in kept:
                    break
            else:
                kept.discard((i, j))
                changed = True
    return not kept


def closed_loop_observable(succ: list[int], out: list[int]) -> bool:
    """Moore refinement of ``x+ = succ[x]``, ``y = out[x]`` (1-based):
    observable iff the coarsest output-consistent partition is discrete."""
    n = len(succ)
    nxt = [s - 1 for s in succ]
    labels = list(out)
    count = len(set(labels))
    while count < n:
        ids: dict[tuple[int, int], int] = {}
        labels = [ids.setdefault((labels[x], labels[nxt[x]]), len(ids)) for x in range(n)]
        if len(ids) == count:
            return False
        count = len(ids)
    return True


def _order(net: dict) -> tuple[list[int], list[int]]:
    """States in candidate order and the class index of each position."""
    order: list[int] = []
    class_of: list[int] = []
    for c, cls in enumerate(output_classes(net)):
        order.extend(cls)
        class_of.extend([c] * len(cls))
    return order, class_of


def first_observable(net: dict, cap: int | None = None) -> tuple[int, list[int] | None]:
    """Walk the candidates in order; return ``(rank, succ)`` of the first
    observable closed loop, or ``(count, None)`` when there is none.
    With ``cap``, stop after that many candidates and return ``(cap, None)``."""
    n, H = net["N"], net["H"]
    order, class_of = _order(net)
    opts = [options(net, x) for x in order]
    used = [set() for _ in output_classes(net)]
    succ = [0] * n
    seen = 0

    def rec(pos: int) -> bool:
        nonlocal seen
        if pos == n:
            seen += 1
            return closed_loop_observable(succ, H) or seen == cap
        u = used[class_of[pos]]
        for v in opts[pos]:
            if v not in u:
                u.add(v)
                succ[order[pos] - 1] = v
                stop = rec(pos + 1)
                u.discard(v)
                if stop:
                    return True
        return False

    if rec(0) and closed_loop_observable(succ, H):
        return seen, list(succ)
    return seen, None


def candidate_rank(net: dict, succ: list[int]) -> int:
    """1-based position of the closed loop ``succ`` in the candidate order."""
    classes = output_classes(net)
    later: dict[int, int] = {}  # candidates of classes c+1.. onwards, on demand

    def after(c: int) -> int:
        if c not in later:
            later[c] = 1
            for cls in classes[c + 1:]:
                later[c] *= injective_count([options(net, x) for x in cls])
        return later[c]

    rank = 1
    for c, cls in enumerate(classes):
        used: set[int] = set()
        for i, x in enumerate(cls):
            rest = [options(net, y) for y in cls[i + 1:]]
            for v in options(net, x):
                if v >= succ[x - 1]:
                    break
                if v not in used:
                    rank += injective_count([[w for w in o if w not in used and w != v]
                                             for o in rest]) * after(c)
            used.add(succ[x - 1])
    return rank


def closed_loop(net: dict, g: list[int]) -> list[int]:
    """Successor map of the closed loop ``u = g[x]``, read straight from L."""
    m, L = net["M"], net["L"]
    return [L[(x - 1) * m + g[x - 1] - 1] for x in range(1, net["N"] + 1)]


def least_inputs(net: dict, succ: list[int]) -> list[int]:
    """Per state, the least input that drives it to ``succ[x]``."""
    m, L = net["M"], net["L"]
    return [next(u for u in range(1, m + 1) if L[(x - 1) * m + u - 1] == succ[x - 1])
            for x in range(1, net["N"] + 1)]


def primitive(word: list[int]) -> bool:
    """True when ``word`` is not a repetition of a shorter word."""
    n = len(word)
    return all(word != word[d:] + word[:d] for d in range(1, n) if n % d == 0)


def closed_loop_net(net: dict, g: list[int]) -> dict:
    """The closed loop ``u = g[x]`` as a one-input network dict."""
    return {"N": net["N"], "M": 1, "Q": net["Q"], "L": closed_loop(net, g), "H": list(net["H"])}


def apply_controller(net: dict, ctrl: dict) -> dict:
    """Feed a controller file's ``g`` or ``P``/``G`` into the network:
    new input v of state x selects old input ``G[(x-1)*P + v-1]``."""
    if "g" in ctrl:
        return closed_loop_net(net, ctrl["g"])
    p, G, m, L = ctrl["P"], ctrl["G"], net["M"], net["L"]
    cols = [L[(x - 1) * m + G[(x - 1) * p + v] - 1]
            for x in range(1, net["N"] + 1) for v in range(p)]
    return {"N": net["N"], "M": p, "Q": net["Q"], "L": cols, "H": list(net["H"])}


def controllable(net: dict) -> bool:
    """Every state reaches every state (breadth-first from each)."""
    n, m, L = net["N"], net["M"], net["L"]
    for src in range(1, n + 1):
        seen, frontier = {src}, [src]
        while frontier:
            x = frontier.pop()
            for t in L[(x - 1) * m:x * m]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if len(seen) < n:
            return False
    return True


def naive_bound(net: dict) -> int:
    return math.prod(len(options(net, x)) for x in range(1, net["N"] + 1))


def synthesis_result(net: dict, cap: int | None = None) -> dict:
    """What ``synthesize`` must report: verdict, candidates checked and
    witness ``g``, decided by the reference code alone."""
    n = net["N"]
    if observable(net):
        return {"verdict": "SYNTHESIZED", "candidates_checked": 0, "witness": [1] * n}
    if obstruction(net) or 0 in class_counts(net):
        return {"verdict": "NOT_SYNTHESIZABLE", "candidates_checked": 0, "witness": None}
    rank, succ = first_observable(net, cap)
    if succ is not None:
        return {"verdict": "SYNTHESIZED", "candidates_checked": rank,
                "witness": least_inputs(net, succ)}
    verdict = "DECISION_INCOMPLETE" if rank == cap else "NOT_SYNTHESIZABLE"
    return {"verdict": verdict, "candidates_checked": rank, "witness": None}


def transition_edges(net: dict) -> set[tuple[str, str, str]]:
    """DOT edges of the transition graph: (source, target, multiplicity)."""
    n, m, L = net["N"], net["M"], net["L"]
    counts: dict[tuple[int, int], int] = {}
    for x in range(1, n + 1):
        for t in L[(x - 1) * m:x * m]:
            counts[(x, t)] = counts.get((x, t), 0) + 1
    return {(str(x), str(t), str(c)) for (x, t), c in counts.items()}


def pair_edges(net: dict) -> set[tuple[str, str, str]]:
    """DOT edges of the pair graph: (pair, successor pair or DIAG, inputs)."""
    n, m, L, H = net["N"], net["M"], net["L"], net["H"]
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if H[i - 1] == H[j - 1]]
    wide = any(j > 9 for _i, j in pairs)

    def name(i, j):
        return f"{i}-{j}" if wide else f"{i}{j}"

    inputs: dict[tuple[str, str], list[int]] = {("DIAG", "DIAG"): list(range(1, m + 1))}
    for i, j in pairs:
        for u in range(1, m + 1):
            a, b = L[(i - 1) * m + u - 1], L[(j - 1) * m + u - 1]
            if a == b:
                dst = "DIAG"
            elif H[a - 1] == H[b - 1]:
                dst = name(min(a, b), max(a, b))
            else:
                continue
            inputs.setdefault((name(i, j), dst), []).append(u)
    return {(s, d, ",".join(map(str, us))) for (s, d), us in inputs.items()}


def dot_edges(text: str) -> set[tuple[str, str, str]]:
    """Edges of a DOT text written as ``"a" -> "b" [label="l"];``."""
    edges = set()
    for line in text.splitlines():
        parts = line.strip().split('"')
        if len(parts) == 7 and parts[2].strip() == "->":
            edges.add((parts[1], parts[3], parts[5]))
    return edges
