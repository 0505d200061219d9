"""Seeded instance generators for the ``synth-*`` workloads.

Every generator is plain benchmark code: it builds network dicts (the
JSON form lcnsyn reads) from a seed and checks its own construction
with ``reference``, never with lcnsyn.

Each workload draws from a universe of networks indexed by a sub-seed.
``data/<workload>.json`` holds one cost key per sub-seed, computed by
``make_data.py`` with the benchmark's reference code: the reference
leaf count for ``synth-first-hit`` and ``synth-exhaustive``, the sum of
the per-class injective counts for ``synth-wide`` (key 0 or below marks
a sub-seed the workload never draws). A pool is a stratified sample:
the usable sub-seeds are sorted by key and cut into ``STRATA`` runs of
equal size, and the workload seed picks one sub-seed from each (after
setting aside the ``CORE`` heaviest, which every pool includes; in the
``FIXED_STRATA`` top strata the pick is the same for every seed). The
pool therefore keeps the shape of the universe's cost distribution for
every seed, which a plain random draw of a few dozen heavy-tailed
instances would not.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference

DATA = Path(__file__).resolve().parent / "data"

#: The 8-state reference network of the test suite (829 leaves).
BIG84 = {
    "N": 8, "M": 4, "Q": 4,
    "L": [1, 1, 2, 3, 2, 3, 1, 4, 3, 5, 7, 6, 6, 7, 8, 1,
          2, 3, 7, 6, 1, 2, 3, 4, 3, 4, 7, 8, 5, 6, 7, 4],
    "H": [1, 1, 1, 1, 1, 2, 2, 2],
}


@dataclass(frozen=True)
class Instance:
    """One network of a pool with the result lcnsyn must report.

    ``leaves`` is the expected ``candidates_checked``; ``witness`` the
    expected closed-loop controller ``g`` (None when not synthesizable).
    ``witness`` may be left None for a SYNTHESIZED instance whose
    expected rank is known; the check then derives it from the rank.
    """

    name: str
    net: dict
    verdict: str
    leaves: int
    witness: tuple[int, ...] | None = None

    def manifest(self) -> dict:
        sizes = sorted(len(c) for c in reference.output_classes(self.net))
        return {"name": self.name, "N": self.net["N"], "M": self.net["M"],
                "Q": self.net["Q"], "class_sizes": sizes,
                "verdict": self.verdict, "leaves": self.leaves}


# --- synth-first-hit -------------------------------------------------------

def first_hit_network(sub: int) -> dict:
    return reference.random_network(sub, 12, 4, 2)


# --- synth-exhaustive ------------------------------------------------------

EXHAUSTIVE_LEAVES = (800, 8000)


def gadget_network(sub: int) -> dict:
    """A NOT_SYNTHESIZABLE network with a planted doomed cycle.

    Equal-output states j, k have blocks whose columns are exactly
    {a, b}; a and b form an output class of their own with constant
    blocks a -> j and b -> k. Every closed loop keeps the pair {j, k}
    cycling through {a, b}, so no feedback helps, while neither
    structural-obstruction rule applies and every candidate must be
    evaluated. State and output labels are shuffled, so the doomed pair
    falls anywhere in the search order. Draws with an obstruction, a
    zero-choice class or a leaf count outside EXHAUSTIVE_LEAVES are
    rejected.
    """
    rng = random.Random(f"exhaustive/{sub}")
    while True:
        n, m, q = rng.randint(12, 15), 3, rng.randint(3, 5)
        label = list(range(1, n + 1))
        rng.shuffle(label)  # logical state i is labelled label[i]
        j, k, a, b = label[:4]
        blocks = {a: [j] * m, b: [k] * m}
        for s in (j, k):
            cols = [a, b, rng.choice((a, b))]
            rng.shuffle(cols)
            blocks[s] = cols
        for s in label[4:]:
            blocks[s] = [rng.randint(1, n) for _ in range(m)]
        out = [1, 1, q + 1, q + 1] + [rng.randint(1, q) for _ in range(n - 4)]
        out_label = list(range(1, q + 2))
        rng.shuffle(out_label)
        H = [0] * n
        for i, s in enumerate(label):
            H[s - 1] = out_label[out[i] - 1]
        net = {"N": n, "M": m, "Q": q + 1,
               "L": [v for s in range(1, n + 1) for v in blocks[s]], "H": H}
        if len(set(H)) != q + 1 or reference.obstruction(net):
            continue
        if not EXHAUSTIVE_LEAVES[0] <= reference.refined_bound(net) <= EXHAUSTIVE_LEAVES[1]:
            continue
        check_gadget(net, j, k, a, b)
        return net


def check_gadget(net: dict, j: int, k: int, a: int, b: int) -> None:
    """Assert the doomed cycle {j, k} -> {a, b} -> {j, k} is in place."""
    H = net["H"]
    cls = {x for x in range(1, net["N"] + 1) if H[x - 1] == H[a - 1]}
    if not (H[j - 1] == H[k - 1] and cls == {a, b}
            and reference.options(net, j) == sorted((a, b))
            and reference.options(net, k) == sorted((a, b))
            and reference.options(net, a) == [j] and reference.options(net, b) == [k]):
        raise AssertionError("gadget construction broken")


# --- synth-wide ------------------------------------------------------------

#: (N, class size) shapes: N in 40..48, output classes of one fixed size.
WIDE_SHAPES = ((40, 8), (48, 8), (45, 9), (40, 10))


def wide_network(sub: int) -> dict:
    """A SYNTHESIZED network whose first candidate is the witness.

    Input 1 drives a single N-cycle whose output word is primitive, so
    that closed loop is observable; every other column of a block is at
    least its input-1 successor, so the input-1 map is the first
    candidate in the search order. Draws that are observable already or
    have a structural obstruction are rejected.
    """
    rng = random.Random(f"wide/{sub}")
    while True:
        (n, size), m = rng.choice(WIDE_SHAPES), 4
        cycle = list(range(1, n + 1))
        rng.shuffle(cycle)
        succ = [0] * n
        for i, x in enumerate(cycle):
            succ[x - 1] = cycle[(i + 1) % n]
        H = [c for c in range(1, n // size + 1) for _ in range(size)]
        rng.shuffle(H)
        if not reference.primitive([H[x - 1] for x in cycle]):
            continue
        L = []
        for x in range(1, n + 1):
            t = succ[x - 1]
            L += [t] + [rng.randint(t, n) for _ in range(m - 1)]
        net = {"N": n, "M": m, "Q": n // size, "L": L, "H": H}
        if reference.observable(net) or reference.obstruction(net):
            continue
        check_wide(net)
        return net


def check_wide(net: dict) -> None:
    """Assert input 1 is a single cycle with a primitive output word and
    is each block's least column."""
    n, m, L, H = net["N"], net["M"], net["L"], net["H"]
    succ = [L[(x - 1) * m] for x in range(1, n + 1)]
    walk, x = [], 1
    for _ in range(n):
        walk.append(x)
        x = succ[x - 1]
    if not (x == 1 and len(set(walk)) == n
            and reference.primitive([H[s - 1] for s in walk])
            and all(reference.options(net, s)[0] == succ[s - 1] for s in range(1, n + 1))):
        raise AssertionError("wide construction broken")


# --- cli-fixtures ----------------------------------------------------------

#: One pass of the ``cli-fixtures`` loop: every network and controller file
#: in tests/fixtures, all six subcommands, the writing paths and the
#: input-error (exit 2) and candidate-cap (exit 4) paths. "{out}" is
#: replaced by a fresh output path for each invocation.
CLI_COMMANDS = (
    ("check-controllability", "funnel44.json"),
    ("check-controllability", "ring42.json"),
    ("check-controllability", "big84.json", "--format", "text"),
    ("check-observability", "ring42_out2.json", "--dot", "{out}"),
    ("check-observability", "ring42_fb_out2.json"),
    ("check-observability", "big84_cl_ones.json"),
    ("check-observability", "big84_cl_mix.json", "--dot", "{out}"),
    ("check-observability", "tri32_cl.json", "--format", "text"),
    ("apply-feedback", "ring42.json", "ctrl_ring42_p2.json", "--out", "{out}"),
    ("apply-feedback", "big84.json", "ctrl_big84_mix.json", "--out", "{out}"),
    ("apply-feedback", "big84.json", "ctrl_big84_ones.json", "--out", "{out}"),
    ("synthesize", "big84.json", "--out", "{out}"),
    ("synthesize", "big84.json", "--max-candidates", "100"),
    ("synthesize", "sink42_out2.json"),
    ("synthesize", "ring42_out2.json", "--out", "{out}"),
    ("synthesize", "tri32.json"),
    ("synthesize", "bad_short_L.json"),
    ("bounds", "big84.json"),
    ("bounds", "ring42_out2.json", "--format", "text"),
    ("export-graph", "big84.json", "--graph", "observability", "--out", "{out}"),
    ("export-graph", "funnel44.json"),
    ("export-graph", "tri32.json", "--graph", "observability"),
)


# --- pools -----------------------------------------------------------------

GENERATORS = {
    "synth-first-hit": first_hit_network,
    "synth-exhaustive": gadget_network,
    "synth-wide": wide_network,
}


def load_keys(workload: str) -> list[int]:
    return json.loads((DATA / f"{workload}.json").read_text())["keys"]


def stratified(ranked: list[int], strata: int, seed: int | None, workload: str) -> list[int]:
    """One sub-seed from each of ``strata`` equal runs of ``ranked``
    (sub-seeds sorted by key): a seeded pick, or with ``seed`` None the
    middle of each run."""
    rng = random.Random(f"{workload}/pool/{seed}")
    runs = [(s * len(ranked) // strata, (s + 1) * len(ranked) // strata) for s in range(strata)]
    return [ranked[(lo + hi) // 2 if seed is None else rng.randrange(lo, hi)] for lo, hi in runs]


#: Sub-seeds drawn per pool: enough strata that every seed's pool has the
#: same cost profile, few enough that one pass takes a few seconds. The
#: sizes also keep a 24-second run's sample count on one rung of the
#: tail ladder (first-hit above 1 000, the others below) when the host
#: runs up to twice as fast.
STRATA = {"synth-first-hit": 400, "synth-exhaustive": 190, "synth-wide": 140}

#: The heaviest usable sub-seeds, which every pool includes. First-hit
#: costs are heavy-tailed (leaves from 1 to ~50 000 at p50 4), so a
#: seeded draw of the top would decide the tail and most of the run
#: time on its own; a fixed top keeps both steady across seeds.
CORE = {"synth-first-hit": 15, "synth-exhaustive": 0, "synth-wide": 0}

#: Strata (the top ones) whose pick is the same for every seed. Solve
#: times differ up to threefold between networks of equal leaf count, so
#: a seeded pick among the heavy draws moves which networks are the
#: slowest, and with them the tail: among first-hit draws of 4 000 to
#: 35 000 leaves the p99 tail moved by a quarter from seed to seed, and
#: the gadget networks' p90 tail and median by a sixth and a tenth. The
#: seed still picks first-hit's lower nine tenths, which set its median,
#: and the lower half of the gadget networks.
FIXED_STRATA = {"synth-first-hit": 40, "synth-exhaustive": 95, "synth-wide": 0}

#: Largest key a pool draws: wide networks with more choices take
#: seconds each in the bounds layer and would crowd out the others.
KEY_CAP = {"synth-first-hit": None, "synth-exhaustive": None, "synth-wide": 120000}

#: Seed-independent members of each pool; their expected results are
#: pinned in expected.json.
PINNED = {
    "synth-first-hit": {"BIG84": lambda: dict(BIG84),
                        "random_network(0, 12, 4, 2)":
                            lambda: reference.random_network(0, 12, 4, 2)},
    "synth-exhaustive": {"random_network(146863, 14, 3, 5)":
                             lambda: reference.random_network(146863, 14, 3, 5)},
    "synth-wide": {},
}


def build_pool(workload: str, seed: int, pinned: dict) -> list[Instance]:
    """The pinned networks, the ``CORE`` heaviest draws, then one draw per
    stratum of the rest.

    ``pinned`` maps each pinned name to its expected verdict, leaves and
    witness (``expected.json``'s "pinned" section).
    """
    pool = [Instance(name, make(), pinned[name]["verdict"], pinned[name]["leaves"],
                     None if pinned[name]["witness"] is None else tuple(pinned[name]["witness"]))
            for name, make in PINNED[workload].items()]
    keys = load_keys(workload)
    if workload == "synth-first-hit":
        keys[0] = 0  # random_network(0, ...) is pinned
    cap = KEY_CAP[workload]
    ranked = sorted((sub for sub, k in enumerate(keys) if 0 < k and (cap is None or k <= cap)),
                    key=lambda sub: (keys[sub], sub))
    split = len(ranked) - CORE[workload]
    strata, fixed = STRATA[workload], FIXED_STRATA[workload]
    upper = len(ranked[:split]) * (strata - fixed) // strata
    picks = (ranked[split:] + stratified(ranked[upper:split], fixed, None, workload)
             + stratified(ranked[:upper], strata - fixed, seed, workload))
    generate = GENERATORS[workload]
    for sub in picks:
        net = generate(sub)
        if workload == "synth-first-hit":
            pool.append(Instance(f"random_network({sub}, 12, 4, 2)", net, "SYNTHESIZED", keys[sub]))
        elif workload == "synth-exhaustive":
            pool.append(Instance(f"gadget({sub})", net, "NOT_SYNTHESIZABLE", keys[sub]))
        else:
            pool.append(Instance(f"wide({sub})", net, "SYNTHESIZED", 1, (1,) * net["N"]))
    return pool
