"""Development-time helper for perfbench/run.py.

    python3 perfbench/run.py --write-golden
        Runs every operation any seed can generate (the whole input pools)
        once, checks it (exit code, zero violations, certificates through
        tools/check_cert.exe, serve statuses) and writes the digests of the
        normalized outputs to perfbench/golden.json.
"""

import json
import os
import shutil
import sys


def _fresh(path):
    if os.path.exists(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def _golden_cli(m, workload, ops, out):
    table = {}
    oracle = m.Oracle(workload, out)
    for op in ops:
        secs, code, so, _ = m.run(m.op_cmd(workload, op, out))
        key = m.op_key(workload, op)
        if code != m.expected_code(workload, op):
            sys.exit(f"golden: {key}: exit code {code}")
        text = m.normalize(workload, op, so, out)
        err = m.semantic_check(workload, op, text)
        if err:
            sys.exit(f"golden: {key}: {err}")
        table[key] = m.sha(text)
        if workload == "modelcheck" and op[1] == "explain":
            oracle.certs[key] = (op[0], so)
        m.log(f"golden: {key} {secs * 1000:.1f} ms")
    if oracle.verify_certs():
        sys.exit("golden: certificate rejected: " + "; ".join(oracle.errors))
    return table


def write_golden(m):
    base = _fresh(os.path.join(m.BUILD, "golden"))
    golden = {}
    # modelcheck: every pool document, every formula, both modes
    out = os.path.join(base, "modelcheck")
    docs = [(f"d{d}-{s}", d, s) for d, seeds in m.MC_POOL.items() for s in seeds]
    m.gen_docs(out, docs)
    m.dump_fixed(out, m.MC_FIXED)
    ops = [(n, mode, f) for n, _, _ in docs for f in m.GEN_FORMULAS for mode in m.MC_MODES]
    ops += [(n, mode, f) for n, _, _ in m.MC_FIXED for f in m.FIXED_FORMULAS[n]
            for mode in m.MC_MODES]
    golden["modelcheck"] = _golden_cli(m, "modelcheck", ops, out)
    # theorems: every window at every depth, every check, and the analyses
    out = _fresh(os.path.join(base, "theorems"))
    ops = [("sweep", d, first, m.TH_COUNT[d], c) for d, ws in m.TH_WINDOWS.items()
           for first in ws for c in m.CHECKS]
    ops += [("analyze", s, r) for s, r in m.TH_ANALYZE]
    golden["theorems"] = _golden_cli(m, "theorems", ops, out)
    # serve: every request the generator can send, through one server
    out = os.path.join(base, "serve")
    pool = [f"s4-{s}" for s in m.SV_POOL]
    m.gen_docs(out, [(d, 4, int(d[3:])) for d in pool])
    spend = m.sv_spend(out, pool)
    inp = {"quoted": {}, "spend": spend}
    for d in pool:
        with open(os.path.join(out, d + ".pps")) as fh:
            inp["quoted"][d] = m.quote(fh.read())
    keys = []
    for d in pool:
        keys += m.sv_keyspace(d)
        keys += [("degraded", d, f, p) for f in m.SV_BELIEF_FORMULAS for p in m.SV_BELIEF_POINTS]
    reqs = [("golden", k, i + 1) for i, k in enumerate(keys)]
    server = m.Server(out)
    try:
        server.ping()
        resp = m.open_loop(server, lambda i: m.sv_frame(inp, reqs[i]), len(reqs),
                           [0.0] * len(reqs))[3]
        if server.close()[0] != 0:
            sys.exit("golden: pak serve failed")
    finally:
        server.kill()
    table = {}
    for k, p in zip(keys, resp):
        want = b"(status estimated)" if k[0] == "degraded" else b"(status ok)"
        if b"(code 0)" not in p or want not in p:
            sys.exit(f"golden: {m.sv_key_name(k, spend)}: unexpected response {p[:200]!r}")
        table[m.sv_key_name(k, spend)] = m.sha(m.sv_normalize(p))
    golden["serve"] = table
    with open(m.GOLDEN, "w") as f:
        f.write("{\n")
        f.write(",\n".join(
            f"  {json.dumps(w)}: {{\n" + ",\n".join(
                f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(t.items()))
            + "\n  }" for w, t in golden.items()))
        f.write("\n}\n")
    m.log(f"golden: wrote {sum(len(t) for t in golden.values())} digests to {m.GOLDEN}")
