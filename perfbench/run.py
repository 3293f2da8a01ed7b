#!/usr/bin/env python3
"""Scale-ladder benchmark for pak: batch model checking, theorem checking
and open-loop `pak serve`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload modelcheck|theorems|serve \
        --seed N --seconds S --trace 0|1

The benchmark builds `pak` (bin/pak_cli.exe), the independent certificate
checker (tools/check_cert.exe) and its own in-process helper
(perfbench/_ocaml, built in a private dune workspace under .bench_build/),
generates the workload's inputs from the seed, measures for about S
seconds, checks every output against committed digests, and prints one
JSON object as the last line of stdout. With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run. See perfbench/README.md.

Other modes:
    --selfcheck       seed plumbing: same seed -> identical inputs,
                      other seed -> different inputs
    --write-golden    recompute perfbench/golden.json over every input pool
"""

import argparse
import bisect
import collections
import hashlib
import json
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
BUILD = ".bench_build"
PAK = "_build/default/bin/pak_cli.exe"
CHECK_CERT = "_build/default/tools/check_cert.exe"
PBTOOL = os.path.join(BUILD, "ws", "_build", "default", "pbtool", "pbtool.exe")

WORKLOADS = ("modelcheck", "theorems", "serve")

# A seed never used while the benchmark was written: confirm gain claims
# on it too.
HELD_OUT_SEED = 8675309

# ---------------------------------------------------------------------------
# Input pools. Every generated input is drawn from these fixed pools, so the
# committed digests in golden.json cover every seed. Gen seeds were chosen
# with `pbtool scan` inside a size band per rung (points of the tree), then
# kept near the median cost of their rung's queries, so that seeds are
# comparable.
# ---------------------------------------------------------------------------

MC_POOL = {
    3: [428, 564, 246, 789, 509, 852, 697, 810, 21, 231, 663, 122, 407, 930, 423, 374],  # 440-520 points
    4: [154, 1084, 97, 1580, 563, 2071, 2196, 919, 5, 797, 1991, 539],  # 2800-3200 points
    5: [1078, 1189, 949, 88, 49, 621, 954, 971],  # 11000-13000 points
}
MC_PICK = {3: 3, 4: 4, 5: 1}
MC_FIXED = [("judge8", "judge", 8), ("ca5", "coordinated-attack", 5)]

# One formula per class: K/E, B/EB, C/CB fixpoints, temporal/does.
GEN_FORMULAS = [
    "K[0] (a0_s2_0 | a1_s2_1)",
    "E[0,1] F a0_s3_1",
    "B[0]>=1/2 a1_s2_0",
    "EB[0,1]>=1/3 F a0_s3_0",
    "C[0,1] F (a0_s3_0 | a0_s3_1)",
    "CB[0,1]>=1/2 F a1_s3_1",
    "G (does[0](a1_0) -> X a0_s2_1)",
]
FIXED_FORMULAS = {
    "judge8": [
        "K[0] (a0_inc4 | a0_inc5)",
        "E[0,1] F a0_inc6",
        "B[0]>=99/100 a1_guilty",
        "EB[0,1]>=9/10 a1_guilty",
        "C[0,1] (does[0](convict) -> a1_guilty)",
        "CB[0,1]>=3/4 a1_guilty",
        "F does[0](convict)",
    ],
    "ca5": [
        "K[0] a1_heard2",
        "E[0,1] F does[1](attack)",
        "B[0]>=19/20 F does[1](attack)",
        "EB[0,1]>=9/10 F does[0](attack)",
        "C[0,1] F does[0](attack)",
        "CB[0,1]>=1/2 F does[1](attack)",
        "G (does[0](attack) -> F does[1](attack))",
    ],
}
MC_MODES = ("load", "explain")

CHECKS = ("thm62", "thm42", "lemma43", "lemma51", "cor72", "kop")
# First seeds of sweep windows (TH_COUNT consecutive Gen seeds). A round's
# longest sweeps are its lemma43 ones, so they set latency_ms_p90: the
# windows are those whose `sweep --check lemma43` took 63-87 ms, and
# whose other checks took at most 63 ms, among the 64 windows starting
# at 1, 51, ..., 3151 at depth 4 and the 400 starting at odd seeds 1-799
# at depth 5 (perfbench/README.md).
TH_WINDOWS = {4: [2201, 2301, 401, 2151, 201, 3001, 1501, 1601],
              5: [183, 641, 779, 659, 469, 485, 521, 113]}
# Depth-5 windows hold two seeds, so that one of their sweeps costs about
# what a depth-4 window's does: command times then form one continuous
# band, and the latency percentiles do not sit on a gap between two
# bands.
TH_PICK = {4: 4, 5: 4}
TH_COUNT = {4: 12, 5: 2}
# judge 9 is left out: one analysis takes 4-6 s, half of a round, so a
# run held two or three samples of it and its timings spread past the
# bound.
TH_ANALYZE = [("judge", 7), ("judge", 8), ("coordinated-attack", 4),
              ("coordinated-attack", 5)]
# pak analyze prints the constraint verdict and five theorem checks.
ANALYZE_CHECKS = 6

SV_POOL = [3, 15, 20, 21, 24, 25, 26, 30, 31, 32, 33, 36, 39, 41, 47, 52, 55, 56, 57, 58,
           60, 62, 64, 66, 67, 69, 75, 77, 80, 84, 86, 88, 89, 91, 93, 95, 96, 101, 103,
           105, 106, 107, 114, 115, 117, 118, 124, 126]  # depth 4, 20-60 KB documents
# No C/CB fixpoints: on a depth-4 tree one costs more than the document
# parse, so a few of them would set every serve percentile. The
# modelcheck workload measures fixpoints.
SV_FORMULAS = [
    "K[0] a0_s2_0", "K[1] a1_s3_1", "K[0] (a0_s3_0 | a1_s3_1)", "E[0,1] F a0_s3_1",
    "B[0]>=1/2 a1_s2_0", "B[1]>=1/3 a0_s3_1", "B[0]>=3/4 F a1_s4_0", "EB[0,1]>=1/2 a0_s2_1",
    "G (does[0](a1_0) -> X a0_s2_1)", "F (a0_s4_1 & a1_s4_0)", "a0_s1_0 | X a1_s2_1",
    "E[0,1] a1_s2_1",
]
SV_BELIEF_FORMULAS = ["a1_s2_0", "F a0_s3_1", "a0_s2_1 & a1_s2_0", "X a1_s3_0"]
SV_BELIEF_POINTS = [(0, 0, 2), (1, 1, 3), (0, 2, 1)]
# Monte-Carlo samples of a degraded belief request, as tools/soak.ml asks.
SV_DEGRADED_SAMPLES = 400
SV_DEGRADED_SEED = 7
# The request mix: requests of each class in every block of 100. The op
# kinds keep the proportions of the request slots of tools/soak.ml, the
# repository's serve traffic harness: per 10 requests 4 eval, 2 exact
# belief and 1 degraded belief (its other slots are faults, pings and
# status). Over the 99 non-junk requests that is 57 eval, 28 belief and
# 14 degraded. The evals are split evenly over the three cache outcomes
# an eval can meet (result-cache hit, tree-cache hit, tree-cache miss):
# no traffic log weights one over another. The junk frame is an
# expected protocol error.
SV_MIX = [("repeat", 19), ("new_formula", 19), ("unseen_doc", 19),
          ("belief", 28), ("degraded", 14), ("junk", 1)]
# Capacities of the server's FIFO caches (Serve.default_config).
SV_TREE_CACHE = 32
SV_RESULT_CACHE = 256
# Untimed requests before the first phase: they fill the tree cache and
# give the result cache entries to repeat.
SV_WARMUP = [("unseen_doc", 24), ("new_formula", 136)]

# Serve capacity (requests/s) of this request mix, frozen: the median
# end-to-end serve throughput_per_s (the saturated burst) of seeds 1-5 at
# 30 s on the commit that fixed this mix, on a 2-vCPU x86-64 VM
# (perfbench/README.md). The fixed rates and the ladder are shares of it.
SV_CAPACITY_RPS = 159.3
SV_LOW, SV_HIGH = 0.3, 0.8
SV_LADDER = [0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0]
# Latency limit for the ladder: the p99 a step must stay under.
SV_LIMIT_MS = 100.0
# A run whose generator sends frames later than this (p99) fell behind
# its schedule: it is reported invalid, not faster.
SV_LATE_LIMIT_MS = 50.0
# The end-to-end run alternates a closed segment and a burst segment,
# cycle after cycle, so that both metrics sample the whole run and not
# one stretch of it. Each segment is one block of the mix (the warm-up
# is followed by whole blocks), so every segment sends the same classes.
SV_CLOSED, SV_BURST = 100, 100
# Requests the client keeps outstanding at most, in every phase. A frame
# due while the window is full waits in the client; its latency still
# counts from when it was due.
SV_BURST_AHEAD = 32
# The server fills its result cache when it writes a response, at most
# SV_BURST_AHEAD requests after it looked the key up. The generator
# repeats a key only once it was inserted this many requests ago, and
# sends a key as new only if it never was cached or left the cache this
# many requests ago, so each class meets the cache outcome it names.
SV_SETTLED = 2 * SV_BURST_AHEAD

SETUP_REPEATS = 5
# Host speed. On the shared 2-vCPU VM the benchmark was written on, the
# CPU runs at two speeds and switches between them from milliseconds to
# minutes apart: in the slow state every instruction, pak's and this
# script's alike, takes about 1.5x as long. That alone spread runs of the
# same code past the bounds. Every end-to-end time is therefore scaled by
# REF_NOMINAL_MS / host_ms(), host_ms() timed just before and just after
# the work it scales. The loop is this script's own, so no change to pak
# moves it, and a slower pak still reads slower by the same share.
REF_ITERS = 20000
# host_ms() in the fast state of that machine.
REF_NOMINAL_MS = 1.25
# No single operation or server answer may take longer than this.
OP_TIMEOUT_S = 60

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def host_ms(runs=3):
    """The median time of runs of a fixed pure-Python loop (ms)."""
    ts = []
    for _ in range(runs):
        t = time.perf_counter()
        x = 0
        for i in range(REF_ITERS):
            x += i * i
        ts.append(time.perf_counter() - t)
    return statistics.median(ts) * 1000


def scaled(f):
    """Runs f(); returns (its result, the factor that scales the time it
    took to the nominal host speed)."""
    h0 = host_ms()
    r = f()
    return r, 2 * REF_NOMINAL_MS / (h0 + host_ms())


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def pct(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 1)) - 1))
    return s[k]


def quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def frame(payload):
    b = payload.encode()
    return b"pak1 %d\n" % len(b) + b


GC_RE = re.compile(r"^(minor_words|promoted_words|major_words|top_heap_words|"
                   r"minor_collections|major_collections):\s*([0-9.e+]+)", re.M)


def gc_stats(stderr_text):
    return {k: float(v) for k, v in GC_RE.findall(stderr_text)}


def env_gc():
    e = dict(os.environ)
    e["OCAMLRUNPARAM"] = "v=0x400"
    return e


class Fail(Exception):
    pass


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def check_checkout():
    for p in ("dune-project", "lib", "bin/pak_cli.ml", "tools/check_cert.ml"):
        if not os.path.exists(p):
            log(f"perfbench: {p} not found; run from the root of a pak source checkout")
            sys.exit(2)


def build():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    r = subprocess.run(["dune", "build", "./bin/pak_cli.exe", "./tools/check_cert.exe"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        log(r.stdout)
        log("perfbench: building pak failed")
        sys.exit(3)
    # The helper links the repository's libraries; it is built in a private
    # workspace so the repository's own build never sees it.
    ws = os.path.join(BUILD, "ws")
    os.makedirs(ws, exist_ok=True)
    shutil.copyfile("dune-project", os.path.join(ws, "dune-project"))
    for src, dst in (("lib", "lib"), (os.path.join(HERE, "_ocaml"), "pbtool")):
        target = os.path.join(ws, dst)
        if os.path.exists(target):
            shutil.rmtree(target)
        shutil.copytree(src, target)
    r = subprocess.run(["dune", "build", "--root", ".", "./pbtool/pbtool.exe"], cwd=ws,
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        log(r.stdout)
        log("perfbench: building the helper failed")
        sys.exit(3)


def run(cmd):
    """Run a command to completion; returns (seconds, code, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env_gc(),
                           timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Fail(f"{' '.join(cmd)} did not finish in {OP_TIMEOUT_S} s")
    return time.perf_counter() - t0, r.returncode, r.stdout, r.stderr.decode(errors="replace")


# ---------------------------------------------------------------------------
# Input generation (a pure function of workload and seed)
# ---------------------------------------------------------------------------


def gen_docs(out, specs):
    """Write Gen trees; specs: (name, depth, gen seed), depth 0 skipped."""
    os.makedirs(out, exist_ok=True)
    gen = [f"{n}={d}:{s}" for n, d, s in specs if d > 0]
    if gen:
        r = subprocess.run([PBTOOL, "gen", out] + gen)
        if r.returncode != 0:
            raise Fail("pbtool gen failed")


def dump_fixed(out, fixed):
    for name, system, rounds in fixed:
        r = subprocess.run([PAK, "dump", system, "--rounds", str(rounds)],
                           stdout=subprocess.PIPE)
        if r.returncode != 0:
            raise Fail(f"pak dump {system} failed")
        with open(os.path.join(out, name + ".pps"), "wb") as f:
            f.write(r.stdout)


def mc_inputs(seed, out):
    rng = random.Random(f"modelcheck:{seed}")
    docs = []
    for depth in (3, 4, 5):
        for s in rng.sample(MC_POOL[depth], MC_PICK[depth]):
            docs.append((f"d{depth}-{s}", depth, s))
    gen_docs(out, docs)
    dump_fixed(out, MC_FIXED)
    queries = []
    for name, _, _ in docs:
        queries += [(name, m, f) for f in GEN_FORMULAS for m in MC_MODES]
    for name, _, _ in MC_FIXED:
        queries += [(name, m, f) for f in FIXED_FORMULAS[name] for m in MC_MODES]
    rng.shuffle(queries)
    return {"docs": docs + [(n, 0, 0) for n, _, _ in MC_FIXED], "ops": queries}


def th_inputs(seed, out):
    rng = random.Random(f"theorems:{seed}")
    ops = []
    for depth in (4, 5):
        for first in rng.sample(TH_WINDOWS[depth], TH_PICK[depth]):
            ops += [("sweep", depth, first, TH_COUNT[depth], c) for c in CHECKS]
    ops += [("analyze", s, r) for s, r in TH_ANALYZE]
    rng.shuffle(ops)
    os.makedirs(out, exist_ok=True)
    return {"docs": [], "ops": ops}


def sv_keyspace(doc):
    """Every distinct request the generator may send about one document."""
    keys = [("eval", doc, f, None) for f in SV_FORMULAS]
    keys += [("belief", doc, f, p) for f in SV_BELIEF_FORMULAS for p in SV_BELIEF_POINTS]
    return keys


def sv_spend(out, docs):
    """Points an evaluation spends per (doc, degraded-belief formula)."""
    lines = "".join(f"{os.path.join(out, d + '.pps')}\t{f}\n"
                    for d in docs for f in SV_BELIEF_FORMULAS)
    r = subprocess.run([PBTOOL, "spend"], input=lines.encode(), stdout=subprocess.PIPE)
    if r.returncode != 0:
        raise Fail("pbtool spend failed")
    pairs = [(d, f) for d in docs for f in SV_BELIEF_FORMULAS]
    return dict(zip(pairs, (int(x) for x in r.stdout.split())))


def sv_request(rid, key, quoted, spend):
    """The request payload; quoted maps a document to its string literal."""
    op, doc, f, p = key
    wire_op = "belief" if op == "degraded" else op
    s = f"(request (id {rid}) (op {wire_op}) (system {quoted[doc]}) (formula {quote(f)})"
    if op != "eval":
        agent, run_, t = p
        s += f" (agent {agent}) (run {run_}) (time {t})"
    if op == "degraded":
        s += (f" (samples {SV_DEGRADED_SAMPLES}) (seed {SV_DEGRADED_SEED}) "
              f"(max-points {spend[(doc, f)]})")
    return s + ")"


# At least 18 bytes: pak serve waits for that many before it reads a
# frame header, so a shorter frame at the end of a burst is answered only
# when more input arrives.
JUNK_FRAME = frame("(junk frame ((((")


def sv_frame(inp, req):
    """Frames are built when sent: a run's stream is far larger than its
    documents."""
    cls, key, rid = req
    if cls == "junk":
        return JUNK_FRAME
    return frame(sv_request(rid, key, inp["quoted"], inp["spend"]))


def sv_key_name(key, spend=None):
    op, doc, f, p = key
    if op == "eval":
        return f"eval|{doc}|{f}"
    extra = ""
    if op == "degraded":
        extra = f"|{SV_DEGRADED_SAMPLES},{SV_DEGRADED_SEED},{spend[(doc, f)]}"
    return f"{op}|{doc}|{f}|{p[0]},{p[1]},{p[2]}{extra}"


def sv_classes(rng, n):
    """The warm-up, then n classes with exact SV_MIX counts in every block
    of 100, each block in seeded order."""
    block = [c for c, k in SV_MIX for _ in range(k)]
    classes = [c for c, k in SV_WARMUP for _ in range(k)]
    while len(classes) < sv_warmup() + n:
        b = block[:]
        rng.shuffle(b)
        classes += b
    return classes[:sv_warmup() + n]


def sv_warmup():
    return sum(k for _, k in SV_WARMUP)


def sv_inputs(seed, out, n_requests):
    """The request stream: the warm-up and n_requests frames of the mix.
    The generator models the server's FIFO caches (lib/serve/serve.ml)
    request by request so that each request meets the cache outcome its
    class names; every run checks that against the server's own (op
    status) counters (sv_mix_errors)."""
    rng = random.Random(f"serve:{seed}")
    pool = [f"s4-{s}" for s in SV_POOL]
    gen_docs(out, [(d, 4, int(d[3:])) for d in pool])
    spend = sv_spend(out, pool)
    quoted = {}
    for d in pool:
        with open(os.path.join(out, d + ".pps")) as fh:
            quoted[d] = quote(fh.read())
    keys = {d: {op: [k for k in sv_keyspace(d) if k[0] == op] for op in ("eval", "belief")}
            for d in pool}
    # One job runs requests in arrival order, so the tree cache is
    # modelled exactly.
    trees = collections.deque()
    # Result cache: keys in insertion order with the request index that
    # inserted them; [head:] is cached.
    ins_key, ins_at, head = [], [], 0
    cached, left = set(), {}

    def fresh(k, i):
        return k not in cached and left.get(k, -SV_SETTLED) <= i - SV_SETTLED

    def pick(docs, op, i):
        for d in docs:
            cands = [k for k in keys[d][op] if fresh(k, i)]
            if cands:
                return rng.choice(cands)
        raise Fail(f"serve generator: no new {op} key at request {i}")

    # Unseen documents and degraded beliefs cost from 2 to 9 ms and from 15
    # to 29 ms by document: they go to the least used documents first, so
    # seeds differ in order, not in how much work a run holds.
    used = {"unseen_doc": collections.Counter(), "degraded": collections.Counter()}

    def balanced(docs, cls):
        docs = rng.sample(list(docs), len(docs))
        return sorted(docs, key=lambda d: used[cls][d])

    reqs = []
    for i, cls in enumerate(sv_classes(rng, n_requests)):
        rid = i + 1
        if cls == "junk":
            reqs.append((cls, None, rid))
            continue
        if cls == "repeat":
            hi = bisect.bisect_right(ins_at, i - SV_SETTLED, lo=head)
            if hi == head:
                raise Fail(f"serve generator: nothing to repeat at request {i}")
            reqs.append((cls, ins_key[rng.randrange(head, hi)], rid))
            continue
        if cls == "unseen_doc":
            key = pick(balanced([d for d in pool if d not in trees], cls), "eval", i)
        elif cls == "new_formula":
            key = pick(rng.sample(list(trees), len(trees)), "eval", i)
        elif cls == "belief":
            key = pick(rng.sample(list(trees), len(trees)), "belief", i)
        else:
            key = ("degraded", balanced(trees, cls)[0], rng.choice(SV_BELIEF_FORMULAS),
                   rng.choice(SV_BELIEF_POINTS))
        if cls in used:
            used[cls][key[1]] += 1
        if key[1] not in trees:
            trees.append(key[1])
            if len(trees) > SV_TREE_CACHE:
                trees.popleft()
        if cls != "degraded":  # an estimated answer is never cached
            ins_key.append(key)
            ins_at.append(i)
            cached.add(key)
            if len(cached) > SV_RESULT_CACHE:
                cached.discard(ins_key[head])
                left[ins_key[head]] = i
                head += 1
        reqs.append((cls, key, rid))
    return {"docs": [(d, 4, int(d[3:])) for d in pool], "requests": reqs, "spend": spend,
            "quoted": quoted}


def sv_expected(reqs):
    """The (op status) counters the server must report after answering
    reqs, from their classes."""
    c = collections.Counter(cls for cls, _, _ in reqs)
    misses = c["new_formula"] + c["unseen_doc"] + c["belief"] + c["degraded"]
    return {"shed": 0, "degraded": c["degraded"], "cache.hits": c["repeat"],
            "cache.misses": misses, "tree-cache.hits": misses - c["unseen_doc"],
            "tree-cache.misses": c["unseen_doc"]}


STATUS_RE = re.compile(
    rb"\(shed (\d+)\) \(degraded (\d+)\) \(cache \(entries \d+\) \(capacity \d+\) "
    rb"\(hits (\d+)\) \(misses (\d+)\).*?\(tree-cache \(entries \d+\) "
    rb"\(capacity \d+\) \(hits (\d+)\) \(misses (\d+)\)\)")


def sv_status(payload):
    """The counters of an (op status) response."""
    m = STATUS_RE.search(payload)
    if not m:
        raise Fail(f"unexpected status response {payload[:200]!r}")
    names = ("shed", "degraded", "cache.hits", "cache.misses", "tree-cache.hits",
             "tree-cache.misses")
    return dict(zip(names, (int(x) for x in m.groups())))


def sv_mix_errors(reqs, status, who):
    """Logs the share of each class sent; returns errors where the
    server's counters differ from what the classes say."""
    c = collections.Counter(cls for cls, _, _ in reqs[sv_warmup():])
    n = max(1, sum(c.values()))
    log(f"serve mix sent by {who} (after the warm-up of {sv_warmup()}): " +
        ", ".join(f"{cls} {c[cls] / n:.1%}" for cls, _ in SV_MIX) + f" of {n}")
    want = sv_expected(reqs)
    return [f"{who}: (op status) {k} {status[k]} != {v} expected from the mix"
            for k, v in want.items() if status[k] != v]


def make_inputs(workload, seed, out, n_requests=0):
    if workload == "modelcheck":
        return mc_inputs(seed, out)
    if workload == "theorems":
        return th_inputs(seed, out)
    return sv_inputs(seed, out, n_requests)


def inputs_digest(workload, inp, out):
    """Digest of everything a seed generates: documents and operations."""
    h = hashlib.sha256()
    for name, _, _ in inp["docs"]:
        with open(os.path.join(out, name + ".pps"), "rb") as f:
            h.update(f.read())
    if workload == "serve":
        for r in inp["requests"]:
            h.update(sv_frame(inp, r))
    else:
        h.update(repr(inp["ops"]).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Operations and the output oracle
# ---------------------------------------------------------------------------


def op_cmd(workload, op, out):
    if workload == "modelcheck":
        doc, mode, f = op
        path = os.path.join(out, doc + ".pps")
        if mode == "load":
            return [PAK, "load", path, "--formula", f]
        return [PAK, "explain", path, "--formula", f, "--json"]
    if op[0] == "sweep":
        _, depth, first, count, check = op
        return [PAK, "sweep", "--check", check, "--depth", str(depth), "--first-seed",
                str(first), "--count", str(count), "-j", "1"]
    _, system, rounds = op
    return [PAK, "analyze", system, "--rounds", str(rounds), "-j", "1"]


def op_key(workload, op):
    if workload == "modelcheck":
        doc, mode, f = op
        return f"{mode}|{doc}|{f}"
    return "|".join(str(x) for x in op)


def op_checks(workload, op, stdout=None):
    """(system, check) verdicts one operation yields: a sweep skips seeds
    whose system has no proper action, so its own count is used."""
    if workload != "theorems":
        return 1
    if op[0] == "analyze":
        return ANALYZE_CHECKS
    m = SWEEP_RE.search(stdout.decode(errors="replace")) if stdout else None
    return int(m.group(1)) if m else op[3]


def normalize(workload, op, stdout, out):
    text = stdout.decode(errors="replace")
    if workload == "modelcheck" and op[1] == "load":
        text = text.replace(os.path.join(out, op[0] + ".pps"), op[0])
    return text


def expected_code(workload, op):
    # pak analyze exits 1 when the analyzed constraint is violated: a
    # property of the system (judge), not a failure.
    if workload == "theorems" and op[0] == "analyze" and op[1] == "judge":
        return 1
    return 0


THEOREM_RE = re.compile(r"respected=(true|false)")
SWEEP_RE = re.compile(r"(\d+) checked, (\d+) skipped, (\d+) violations")


def semantic_check(workload, op, text):
    """Checks that need no golden digest."""
    if workload != "theorems":
        return None
    if op[0] == "sweep":
        m = SWEEP_RE.search(text)
        if not m or m.group(3) != "0" or m.group(1) == "0":
            return "sweep reported violations or checked nothing"
    else:
        flags = THEOREM_RE.findall(text)
        if len(flags) != 5 or any(f != "true" for f in flags):
            return "analyze reported a theorem violation"
    return None


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


class Oracle:
    def __init__(self, workload, out):
        self.workload = workload
        self.out = out
        self.golden = load_golden().get(workload, {})
        self.certs = {}
        self.errors = []

    def check(self, op, code, stdout):
        """True when the output is right. Certificates are kept for the
        independent checker."""
        key = op_key(self.workload, op)
        if code != expected_code(self.workload, op):
            self.errors.append(f"{key}: exit code {code}")
            return False
        text = normalize(self.workload, op, stdout, self.out)
        err = semantic_check(self.workload, op, text)
        if err:
            self.errors.append(f"{key}: {err}")
            return False
        d = sha(text)
        want = self.golden.get(key)
        if want is None:
            self.errors.append(f"{key}: no committed digest")
            return False
        if d != want:
            self.errors.append(f"{key}: output digest {d} != committed {want}")
            return False
        if self.workload == "modelcheck" and op[1] == "explain" and key not in self.certs:
            self.certs[key] = (op[0], stdout)
        return True

    def verify_certs(self):
        """Re-verify every distinct certificate with tools/check_cert.exe;
        returns how many were rejected."""
        bad = 0
        path = os.path.join(self.out, "cert.json")
        for key, (doc, cert) in self.certs.items():
            with open(path, "wb") as f:
                f.write(cert)
            r = subprocess.run([CHECK_CERT, os.path.join(self.out, doc + ".pps"), path],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                bad += 1
                self.errors.append(f"{key}: certificate rejected: {r.stdout[:200]!r}")
        return bad


# ---------------------------------------------------------------------------
# Closed loop: modelcheck and theorems
# ---------------------------------------------------------------------------


def closed_loop(workload, ops, out, seconds, oracle):
    """Whole rounds over the seed's operations, one pak process at a time:
    as many rounds as the first one says fit in the time budget, rounded
    to the nearest (at least one), so every round measures the same
    operation mix. Returns one
    record per operation: (round, key, ms, verdicts, minor words, peak heap
    words, host-speed factor), and the round times."""
    recs, round_s = [], []
    attempted = failed = 0
    planned = 1
    while len(round_s) < planned:
        r0 = time.perf_counter()
        h0 = host_ms()
        for op in ops:
            secs, code, so, se = run(op_cmd(workload, op, out))
            h1 = host_ms()
            scale = 2 * REF_NOMINAL_MS / (h0 + h1)
            h0 = h1
            attempted += 1
            verdicts = 0
            if oracle.check(op, code, so):
                verdicts = op_checks(workload, op, so)
            else:
                failed += 1
            gc = gc_stats(se)
            recs.append((len(round_s), op_key(workload, op), secs * 1000, verdicts,
                         gc.get("minor_words", 0.0), gc.get("top_heap_words", 0.0), scale))
        round_s.append(time.perf_counter() - r0)
        if len(round_s) == 1:
            planned = max(1, round(seconds / round_s[0]))
    with open(os.path.join(out, "ops.tsv"), "w") as f:
        f.writelines(f"{r}\t{k}\t{ms:.3f}\t{v}\n" for r, k, ms, v, _, _, _ in recs)
    return {"recs": recs, "round_s": round_s, "attempted": attempted, "failed": failed}


def closed_loop_metrics(workload, res):
    """Per-round throughput (units over the operations' summed time) and
    latency percentiles, each from host-speed-scaled operation times and
    reported as the median over rounds (every round runs the same
    operations)."""
    recs = res["recs"]
    units = (lambda rs: sum(x[3] for x in rs)) if workload == "theorems" else len
    per_round = []
    for r in range(len(res["round_s"])):
        rs = [x for x in recs if x[0] == r]
        ms = [x[2] * x[6] for x in rs]
        per_round.append((units(rs) * 1000 / sum(ms), pct(ms, 0.5), pct(ms, 0.9)))
    return {
        "throughput_per_s": statistics.median(x[0] for x in per_round),
        "latency_ms_p50": statistics.median(x[1] for x in per_round),
        "latency_ms_p90": statistics.median(x[2] for x in per_round),
        "minor_words_per_op": sum(x[4] for x in recs) / max(1, units(recs)),
        "peak_heap_mb": statistics.mean(x[5] for x in recs) * 8 / 1e6,
    }


# ---------------------------------------------------------------------------
# Open loop: serve
# ---------------------------------------------------------------------------


def take_frames(buf):
    """Removes the complete frames at the head of buf (a bytearray) and
    returns their payloads."""
    got = []
    while True:
        nl = buf.find(b"\n")
        if nl < 0:
            break
        n = int(buf[5:nl])
        if len(buf) < nl + 1 + n:
            break
        got.append(bytes(buf[nl + 1:nl + 1 + n]))
        del buf[:nl + 1 + n]
    return got


class Server:
    def __init__(self, out):
        self.err_path = os.path.join(out, "serve.stderr")
        self.err = open(self.err_path, "wb")
        self.p = subprocess.Popen([PAK, "serve", "--jobs", "1"], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.err, env=env_gc())
        self.buf = bytearray()
        self.inp = self.p.stdin.fileno()
        self.outp = self.p.stdout.fileno()
        os.set_blocking(self.inp, False)

    def frames(self):
        """Complete response payloads received so far."""
        return take_frames(self.buf)

    def read(self, timeout):
        r, _, _ = select.select([self.outp], [], [], timeout)
        if r:
            data = os.read(self.outp, 1 << 20)
            if not data:
                raise Fail("server closed its output")
            self.buf += data
        return self.frames()

    def ping(self):
        os.set_blocking(self.inp, True)
        os.write(self.inp, frame("(ping (id 0))"))
        os.set_blocking(self.inp, False)
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            for fr in self.read(0.5):
                if fr.startswith(b"(pong"):
                    return
        raise Fail("no pong from pak serve")

    def status(self):
        """The counters of an (op status) request sent after every
        response has arrived."""
        os.set_blocking(self.inp, True)
        os.write(self.inp, frame("(request (id 0) (op status))"))
        os.set_blocking(self.inp, False)
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            for fr in self.read(0.5):
                return sv_status(fr)
        raise Fail("no status response from pak serve")

    def close(self):
        """EOF, drain, exit; returns (exit code, GC stats, last responses)."""
        os.set_blocking(self.inp, True)
        self.p.stdin.close()
        rest = self.p.stdout.read()
        self.buf += rest
        code = self.p.wait(timeout=60)
        self.err.close()
        with open(self.err_path, errors="replace") as f:
            return code, gc_stats(f.read()), self.frames()

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()


def open_loop(server, frame_of, n, schedule):
    """Send frame_of(i) at t0 + schedule[i], i < n, with at most
    SV_BURST_AHEAD frames outstanding. Returns per-frame latency (ms, from the scheduled
    send time), when each frame was queued (ms after t0), how late the
    generator queued each frame the window did not hold back (ms), the
    response payloads in order (the server answers in arrival order), and
    the wall time."""
    pending = collections.deque()  # queued frames; the first partly written
    off = 0
    sent = 0
    lat, queued, late, resp = [], [], [], []
    t0 = time.perf_counter() + 0.05
    full = t0 - 1  # last time a due frame found the window full
    progress = t0
    while len(resp) < n:
        now = time.perf_counter()
        if now - progress > OP_TIMEOUT_S:
            raise Fail(f"pak serve stopped answering ({len(resp)} of {n} responses)")
        while sent < n and t0 + schedule[sent] <= now:
            if sent - len(resp) >= SV_BURST_AHEAD:
                full = now
                break
            if t0 + schedule[sent] > full:
                late.append((now - t0 - schedule[sent]) * 1000)
            queued.append((now - t0) * 1000)
            pending.append(frame_of(sent))
            sent += 1
        if sent < n and sent - len(resp) < SV_BURST_AHEAD:
            timeout = max(0.0, t0 + schedule[sent] - time.perf_counter())
        else:
            timeout = 1.0
        r, w, _ = select.select([server.outp], [server.inp] if pending else [], [], timeout)
        if w:
            try:
                off += os.write(server.inp, memoryview(pending[0])[off:off + (1 << 16)])
            except BlockingIOError:
                pass
            if off == len(pending[0]):
                pending.popleft()
                off = 0
        if r:
            data = os.read(server.outp, 1 << 20)
            if not data:
                raise Fail("server closed its output")
            server.buf += data
            t = progress = time.perf_counter()
            for fr in server.frames():
                i = len(resp)
                resp.append(fr)
                lat.append((t - t0 - schedule[i]) * 1000)
    return lat, queued, late, resp, time.perf_counter() - t0


def closed_requests(server, frame_of, n):
    """Sends frame_of(j), j < n, each once the previous one is answered.
    Returns each request's latency (ms), scaled to the nominal host speed
    by one reference loop just before and one just after it, the
    responses, and the reference loop times."""
    lat, resp = [], []
    h0 = host_ms(1)
    hosts = [h0]
    for j in range(n):
        data = memoryview(frame_of(j))
        t = time.perf_counter()
        os.set_blocking(server.inp, True)
        while data:
            data = data[os.write(server.inp, data):]
        os.set_blocking(server.inp, False)
        got = []
        while not got:
            if time.perf_counter() - t > OP_TIMEOUT_S:
                raise Fail(f"pak serve stopped answering ({len(resp)} of {n} responses)")
            got = server.read(1.0)
        ms = (time.perf_counter() - t) * 1000
        h1 = host_ms(1)
        lat.append(ms * 2 * REF_NOMINAL_MS / (h0 + h1))
        hosts.append(h1)
        h0 = h1
        resp += got
    return lat, resp, hosts


def burst_rate(segments):
    """Saturated requests/s over every burst. segments are ("closed", mean
    reference loop time) and ("burst", requests, ms) in the order run; a
    burst leaves no room for reference loops, so its time is scaled by the
    loops of the closed segments on either side of it."""
    n = ms = 0
    for k, seg in enumerate(segments):
        if seg[0] == "burst":
            hosts = [segments[j][1] for j in (k - 1, k + 1)
                     if 0 <= j < len(segments) and segments[j][0] == "closed"]
            n += seg[1]
            ms += seg[2] * REF_NOMINAL_MS / statistics.mean(hosts)
    return n * 1000 / ms


def arrivals(rng, rate, duration):
    """Arrival times at a mean rate, spacing jittered +/-50% from the seed."""
    t, out = 0.0, []
    gap = 1.0 / rate
    while t < duration:
        out.append(t)
        t += gap * rng.uniform(0.5, 1.5)
    return out


ID_RE = re.compile(rb"\(id -?\d+\) ")
TRACE_RE = re.compile(rb"\(trace [0-9a-f]+\) ")


def sv_normalize(payload):
    return TRACE_RE.sub(b"", ID_RE.sub(b"", payload))


def sv_phases(seed, seconds, traced_run):
    """The run's phases: (name, offered share of capacity or None, arrival
    times or None, request count). The end-to-end run alternates closed
    segments (one request outstanding: unloaded latency) and bursts
    (SV_BURST_AHEAD outstanding: the server saturated, its completion rate
    the highest rate it sustains), as many cycles as fill about 80% of the
    time at the frozen capacity. The traced run has the open-loop phases at
    the fixed low and high rates, then the step ladder."""
    cap = SV_CAPACITY_RPS
    if not traced_run:
        cycles = max(2, round(0.8 * seconds * cap / (SV_CLOSED + SV_BURST)))
        return [(name, None, None, count) for _ in range(cycles)
                for name, count in (("closed", SV_CLOSED), ("burst", SV_BURST))]
    rng = random.Random(f"serve-arrivals:{seed}")
    step = 0.3 * seconds / len(SV_LADDER)
    phases = [("low", SV_LOW, arrivals(rng, SV_LOW * cap, 0.2 * seconds)),
              ("high", SV_HIGH, arrivals(rng, SV_HIGH * cap, 0.2 * seconds))]
    phases += [(f"step{k}", share, arrivals(rng, share * cap, step))
               for k, share in enumerate(SV_LADDER)]
    return [(name, share, times, len(times)) for name, share, times in phases]


def sv_check_responses(oracle, reqs, resp, spend):
    """Returns (ok count, failed count) for the request frames sent."""
    ok = bad = 0
    for (cls, key, _), r in zip(reqs, resp):
        if cls == "junk":
            if b"(code 3)" not in r or b"(kind protocol)" not in r:
                oracle.errors.append(f"junk frame answered with {r[:80]!r}")
                bad += 1
            continue
        name = sv_key_name(key, spend)
        want = oracle.golden.get(name)
        got = sha(sv_normalize(r))
        if want is None:
            oracle.errors.append(f"{name}: no committed digest")
            bad += 1
        elif got != want:
            oracle.errors.append(f"{name}: response digest {got} != committed {want}: {r[:120]!r}")
            bad += 1
        else:
            ok += 1
    return ok, bad


def ladder_rate(steps):
    """Highest rate meeting the latency limit without a growing backlog,
    interpolated on p99 between the last passing and the first failing
    step (a step with a growing backlog counts as twice the limit)."""
    prev = None
    for rate, p99, growing in steps:
        if growing:
            p99 = max(p99, 2 * SV_LIMIT_MS)
        if p99 > SV_LIMIT_MS:
            if prev is None:
                return rate * SV_LIMIT_MS / p99
            r1, p1 = prev
            return r1 + (rate - r1) * (SV_LIMIT_MS - p1) / max(1e-9, p99 - p1)
        prev = (rate, p99)
    return steps[-1][0]


def serve_run(seed, seconds, out, setup_times, traced_run=False):
    """One pak serve: the warm-up, then the phases. Every response is
    checked, and a final (op status) must show the cache outcomes the mix
    stands for."""
    phases = sv_phases(seed, seconds, traced_run)

    def generate():
        t0 = time.perf_counter()
        inp = sv_inputs(seed, out, sum(p[3] for p in phases))
        return inp, time.perf_counter() - t0
    (inp, gen_s), scale = scaled(generate)
    gen_s *= scale
    oracle = Oracle("serve", out)
    reqs = inp["requests"]
    warm = sv_warmup()
    phases = [("warmup", None, None, warm)] + phases
    res = {"lat": {}, "real": {}, "late": [], "attempted": 0, "failed": 0, "steps": [],
           "segments": [], "inp": inp}
    server = None
    try:
        for _ in range(SETUP_REPEATS if setup_times is not None else 1):
            if server:
                server.close()
                server.kill()

            def spawn():
                nonlocal server
                t1 = time.perf_counter()
                server = Server(out)
                server.ping()
                return time.perf_counter() - t1
            spawn_s, scale = scaled(spawn)
            if setup_times is not None:
                setup_times.append(gen_s + spawn_s * scale)
        i = 0
        for name, share, times, count in phases:
            chunk = reqs[i:i + count]
            i += count

            def frame_of(j, chunk=chunk):
                return sv_frame(inp, chunk[j])
            if name == "closed":
                lat, resp, hosts = closed_requests(server, frame_of, count)
                res["segments"].append(("closed", statistics.mean(hosts)))
            else:
                lat, queued, late, resp, _ = open_loop(server, frame_of, count,
                                                       times or [0.0] * count)
            ok, bad = sv_check_responses(oracle, chunk, resp, inp["spend"])
            res["attempted"] += ok + bad
            res["failed"] += bad
            if name == "burst":
                # the requests after the first and the time between the
                # first and the last answer: they were served back to back
                res["segments"].append(("burst", count - 1, lat[-1] - lat[0]))
            if times is None and name != "closed":
                # no schedule: latency from when the frame was queued
                lat = [x - q for x, q in zip(lat, queued)]
            elif times is not None:
                res["late"] += late
            real = [x for (cls, _, _), x in zip(chunk, lat) if cls != "junk"]
            res["lat"].setdefault(name, []).extend(lat)
            res["real"].setdefault(name, []).extend(real)
            if name.startswith("step"):
                third = max(1, len(real) // 3)
                growing = statistics.mean(real[-third:]) > 2 * statistics.mean(real[:third]) + 5
                res["steps"].append((share * SV_CAPACITY_RPS, pct(real, 0.99), growing))
                if pct(real, 0.99) > SV_LIMIT_MS or growing:
                    break
        mix = sv_mix_errors(reqs[:i], server.status(), "pak serve")
        oracle.errors += mix
        res["failed"] += len(mix)
        code, gc, _ = server.close()
        if code != 0:
            oracle.errors.append(f"pak serve exited {code}")
            res["failed"] += 1
        res["gc"] = gc
        res["sent"] = i
    finally:
        if server:
            server.kill()
    res["oracle"] = oracle
    return res


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def write_plan(workload, inp, out, path, stream, sv_reqs):
    lines = [f"workload\t{workload}"]
    if workload == "theorems":
        units = sum(op_checks(workload, op) for op in inp["ops"])
        probe_docs = sorted({f"d4-{op[2]}" for op in inp["ops"] if op[0] == "sweep" and op[1] == 4})
        lines += [f"doc\t{d}\t-\t4\t{d[3:]}" for d in probe_docs]
        probes = [(d, f) for d in probe_docs for f in GEN_FORMULAS]
    elif workload == "modelcheck":
        units = len(inp["ops"])
        probes = sorted({(d, f) for d, _, f in inp["ops"]})
    else:
        units = len(sv_reqs)
        probes = sorted({(k[1], k[2]) for c, k, _ in sv_reqs if k})
        # every formula class, on the first documents the stream sends
        firsts = list(dict.fromkeys(p[0] for p in probes))[:2]
        probes += [(d, f) for d in firsts for f in GEN_FORMULAS]
    for name, depth, s in inp["docs"]:
        if workload == "serve" and name not in {d for d, _ in probes}:
            continue
        lines.append(f"doc\t{name}\t{os.path.join(out, name + '.pps')}\t{depth}\t{s}")
    lines.append(f"unit\t{units}")
    if workload == "modelcheck":
        lines += [f"query\t{d}\t{m}\t{f}" for d, m, f in inp["ops"]]
    elif workload == "theorems":
        for op in inp["ops"]:
            if op[0] == "sweep":
                lines.append(f"sweep\t{op[1]}\t{op[2]}\t{op[3]}\t{op[4]}")
            else:
                lines.append(f"analyze\t{op[1]}\t{op[2]}")
    lines.append(f"stream\t{stream}")
    lines += [f"probe\t{d}\t{f}" for d, f in probes]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def pbtool_trace(plan, seconds):
    r = subprocess.run([PBTOOL, "trace", plan, str(seconds)], stdout=subprocess.PIPE)
    if r.returncode != 0:
        raise Fail("pbtool trace failed")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def serve_layer(seed, seconds, out):
    """The pak serve figures every traced run reports, always on the serve
    mix: the open-loop phases on one pak serve, and the stream the helper
    replays through Serve.run (the warm-up and the low-rate phase as sent,
    then an (op status))."""
    res = serve_run(seed, seconds, out, None, traced_run=True)
    reqs = res["inp"]["requests"][:sv_warmup() + len(res["lat"]["low"])]
    path = os.path.join(out, "serve_stream.bin")
    with open(path, "wb") as f:
        for r in reqs:
            f.write(sv_frame(res["inp"], r))
        f.write(frame(f"(request (id {len(reqs) + 1}) (op status))"))
    late = pct(res["late"], 0.99)
    metrics = {"serve.generator_late_ms_p99": late,
               "serve.max_rate_rps": ladder_rate(res["steps"])}
    if late > SV_LATE_LIMIT_MS:
        res["oracle"].errors.append(
            f"run invalid: the generator fell behind its schedule "
            f"(p99 {late:.2f} ms late > {SV_LATE_LIMIT_MS} ms)")
    for rate in ("low", "high"):
        metrics[f"serve.latency_ms_p50.{rate}"] = pct(res["real"][rate], 0.5)
        metrics[f"serve.latency_ms_p99.{rate}"] = pct(res["real"][rate], 0.99)
    log(f"serve ladder (rate, p99 ms, growing backlog): {res['steps']}")
    return res, reqs, path, metrics


def serve_replay_metrics(res, reqs, path, tr):
    """Checks the helper's Serve.run replay like the live server's answers
    and reads its final (op status)."""
    with open(path + ".out", "rb") as f:
        resp = take_frames(bytearray(f.read()))
    oracle = res["oracle"]
    ok, bad = sv_check_responses(oracle, reqs, resp[:len(reqs)], res["inp"]["spend"])
    st = sv_status(resp[len(reqs)])
    mix = sv_mix_errors(reqs, st, "the Serve.run replay")
    oracle.errors += mix
    res["attempted"] += ok + bad
    res["failed"] += bad + len(mix)
    warm = sv_warmup()
    service = tr["service_ms"][warm:len(reqs)]
    wait = [x - y for x, y in zip(res["lat"]["low"], service)]
    # the ratios are over the low-rate phase: the warm-up's counts are
    # known and taken off
    w = sv_expected(reqs[:warm])
    st = {k: v - w[k] for k, v in st.items()}
    n = sum(1 for cls, _, _ in reqs[warm:] if cls != "junk")
    return {
        "serve.service_ms_p50": pct(service, 0.5),
        "serve.service_ms_p99": pct(service, 0.99),
        "serve.wait_ms_p50": pct(wait, 0.5),
        "serve.wait_ms_p99": pct(wait, 0.99),
        "serve.cache_hit_ratio": st["cache.hits"] / (st["cache.hits"] + st["cache.misses"]),
        "serve.tree_cache_hit_ratio":
            st["tree-cache.hits"] / (st["tree-cache.hits"] + st["tree-cache.misses"]),
        "serve.shed_frac": st["shed"] / n,
        "serve.degraded_frac": st["degraded"] / n,
    }


def traced(workload, seed, seconds, out):
    """Per-layer metrics: the serve figures on the serve mix, a short
    untraced end-to-end pass of the workload (for process overhead), then
    the in-process replay of the same inputs."""
    sv_out = os.path.join(out, "serve")
    os.makedirs(sv_out)
    # The other workloads give the serve figures a third of the time.
    res, sv_reqs, stream, metrics = serve_layer(
        seed, seconds if workload == "serve" else seconds / 3, sv_out)
    plan = os.path.join(out, "plan.tsv")
    if workload == "serve":
        write_plan(workload, res["inp"], sv_out, plan, stream, sv_reqs)
        tr = pbtool_trace(plan, seconds * 0.5)
        # process start: spawn to first pong
        t0 = time.perf_counter()
        server = Server(sv_out)
        try:
            server.ping()
            metrics["cli.overhead_ms"] = (time.perf_counter() - t0) * 1000
            server.close()
        finally:
            server.kill()
        oracle, attempted, failed = res["oracle"], 0, 0
    else:
        inp = make_inputs(workload, seed, out)
        oracle = Oracle(workload, out)
        e2e = closed_loop(workload, inp["ops"], out, 0, oracle)
        attempted, failed = e2e["attempted"], e2e["failed"]
        write_plan(workload, inp, out, plan, stream, None)
        tr = pbtool_trace(plan, seconds)
        metrics["cli.overhead_ms"] = statistics.median(
            x[2] - y for x, y in zip(e2e["recs"], tr["op_ms"]))
    metrics.update(serve_replay_metrics(res, sv_reqs, stream, tr))
    if oracle is not res["oracle"]:
        oracle.errors += res["oracle"].errors
    metrics.update(tr["metrics"])
    report(workload, seed, tr, metrics)
    return metrics, attempted + res["attempted"], failed + res["failed"], oracle


# What a gain in a layer metric should move end to end, and where it
# should not (section "Predictions" of perfbench/README.md).
PREDICTIONS = [
    ("serve.decode_us", "serve: latency_ms_p50, throughput_per_s", "modelcheck, theorems"),
    ("serve.digest_us", "serve: throughput_per_s", "modelcheck, theorems"),
    ("serve.service_ms_p50/p99", "serve: latency_ms_p50/p90", "modelcheck, theorems"),
    ("serve.wait_ms_p99", "serve: serve.latency_ms_p99.high, serve.max_rate_rps",
     "modelcheck, theorems"),
    ("serve.cache_hit_ratio", "serve: latency_ms_p50", "modelcheck, theorems"),
    ("tree_io.parse_ms_per_100kb", "modelcheck: latency_ms_p50; serve: throughput_per_s",
     "theorems"),
    ("parser.parse_us", "nothing (control)", "every workload"),
    ("semantics.eval_ms.*", "modelcheck: latency_ms_p50/p90, throughput_per_s", "theorems"),
    ("cert.certify_ms", "modelcheck: latency_ms_p90", "theorems, serve"),
    ("tree.measure_us", "theorems: throughput_per_s; modelcheck: latency_ms_p90", "serve"),
    ("theorems.*_ms", "theorems: throughput_per_s, latency_ms_p50/p90", "modelcheck, serve"),
    ("simulate.us_per_sample", "serve: latency_ms_p90, throughput_per_s, minor_words_per_op",
     "modelcheck, theorems"),
    ("q.add_ns", "theorems: throughput_per_s", "serve"),
    ("par.speedup_j2", "nothing (every workload runs one job)", "every workload"),
    ("gc.promoted_words", "minor_words_per_op, latency_ms_p90", "-"),
    ("cli.overhead_ms", "modelcheck: latency_ms_p50", "serve"),
]


def report(workload, seed, tr, metrics):
    """The traced-run report, on stderr and in .bench_build/report-*.txt."""
    lines = [f"traced run: workload {workload}, seed {seed}",
             f"  in-process replay: untraced {tr['untraced_ms']:.1f} ms, "
             f"traced {tr['traced_ms']:.1f} ms",
             f"  trace.overhead_frac {metrics['trace.overhead_frac']:.4f}  "
             f"trace.coverage_frac {metrics['trace.coverage_frac']:.4f}",
             "", f"  {'layer stage':<22}{'self ms':>12}{'calls':>9}{'share':>8}"]
    total = tr["traced_ms"] or 1.0
    for name, (ms, calls) in sorted(tr["stages_ms"].items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {name:<22}{ms:>12.2f}{calls:>9}{ms / total:>8.1%}")
    lines += ["", f"  {'per-layer metric':<34}{'value':>14}"]
    for k in sorted(metrics):
        lines.append(f"  {k:<34}{metrics[k]:>14.6g}")
    lines += ["", "  predictions: a gain in the layer metric should move / should not move"]
    for m, moves, not_ in PREDICTIONS:
        lines.append(f"    {m:<28} moves {moves}; not {not_}")
    text = "\n".join(lines)
    log(text)
    with open(os.path.join(BUILD, f"report-{workload}.txt"), "w") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# Main modes
# ---------------------------------------------------------------------------


def selfcheck_seed(workload, seed, base):
    """Same seed twice -> identical inputs; seed + 1 -> different."""
    digests = []
    for k, s in enumerate((seed, seed, seed + 1)):
        out = os.path.join(base, f"selfcheck{k}")
        if os.path.exists(out):
            shutil.rmtree(out)
        inp = make_inputs(workload, s, out, n_requests=200)
        digests.append(inputs_digest(workload, inp, out))
        shutil.rmtree(out)
    return digests[0] == digests[1] and digests[0] != digests[2]


def measure(workload, seed, seconds):
    # The vCPUs change speed independently of each other, so every process
    # of the run shares one CPU with the host-speed loops that scale it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = os.path.join(BUILD, workload)
    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)
    setup = []
    if workload == "serve":
        res = serve_run(seed, seconds, out, setup)
        oracle = res["oracle"]
        closed = res["real"]["closed"]
        metrics = {
            "throughput_per_s": burst_rate(res["segments"]),
            "latency_ms_p50": pct(closed, 0.5),
            "latency_ms_p90": pct(closed, 0.9),
            "minor_words_per_op": res["gc"]["minor_words"] / max(1, res["sent"]),
            "peak_heap_mb": res["gc"]["top_heap_words"] * 8 / 1e6,
        }
        rates = [round(s[1] * 1000 / s[2]) for s in res["segments"] if s[0] == "burst"]
        log(f"serve: sent {res['sent']} frames; closed p99 {pct(closed, 0.99):.2f} ms; "
            f"unscaled burst rates {rates}")
        attempted, failed = res["attempted"], res["failed"]
    else:
        def prepare():
            t0 = time.perf_counter()
            inp = make_inputs(workload, seed, out)
            # first process start: page cache, binary, runtime
            if run([PAK, "list"])[1] != 0:
                raise Fail("pak list failed")
            return inp, time.perf_counter() - t0
        for _ in range(SETUP_REPEATS):
            (inp, secs), scale = scaled(prepare)
            setup.append(secs * scale)
        oracle = Oracle(workload, out)
        res = closed_loop(workload, inp["ops"], out, seconds, oracle)
        metrics = closed_loop_metrics(workload, res)
        log(f"{workload}: {len(res['round_s'])} rounds of {len(inp['ops'])} operations, "
            f"round seconds {[round(x, 2) for x in res['round_s']]}")
        attempted, failed = res["attempted"], res["failed"]
    metrics["setup_s"] = statistics.median(setup)
    failed += oracle.verify_certs()
    return metrics, attempted, failed, oracle


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        b = json.load(f)
    return {m["name"]: m["unit"] for m in b["per_layer" if trace else "end_to_end"]}


def emit(correct, attempted, failed, metrics, trace):
    declared = declared_metrics(trace)
    if set(declared) != set(metrics):
        raise Fail(f"metrics differ from BENCHMARK.json: missing "
                   f"{sorted(set(declared) - set(metrics))}, extra "
                   f"{sorted(set(metrics) - set(declared))}")
    out = {"correct": bool(correct), "attempted": int(max(1, attempted)), "failed": int(failed),
           "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in declared.items()}}
    print(json.dumps(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    a = ap.parse_args()
    check_checkout()
    build()
    os.makedirs(BUILD, exist_ok=True)
    if a.selfcheck:
        ok = all(selfcheck_seed(w, s, BUILD) for w in WORKLOADS for s in (a.seed, HELD_OUT_SEED))
        log("seed self-check:", "ok" if ok else "FAILED")
        sys.exit(0 if ok else 1)
    if a.write_golden:
        from golden import write_golden  # development only
        write_golden(sys.modules[__name__])
        return
    if not a.workload:
        ap.error("--workload is required")
    try:
        if a.trace:
            out = os.path.join(BUILD, a.workload + "-trace")
            if os.path.exists(out):
                shutil.rmtree(out)
            os.makedirs(out)
            metrics, attempted, failed, oracle = traced(a.workload, a.seed, a.seconds, out)
            failed += oracle.verify_certs()
        else:
            metrics, attempted, failed, oracle = measure(a.workload, a.seed, a.seconds)
        seeds_ok = selfcheck_seed(a.workload, a.seed, BUILD)
        if not seeds_ok:
            oracle.errors.append("seed self-check failed")
    except Fail as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    for e in oracle.errors[:20]:
        log("perfbench: FAIL", e)
    correct = failed == 0 and seeds_ok and not oracle.errors
    try:
        emit(correct, attempted, failed, metrics, a.trace)
    except Fail as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
