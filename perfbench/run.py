#!/usr/bin/env python3
"""The repository benchmark: jsq and jsqd as a user runs them.

    python3 perfbench/run.py --workload file-scan --seed 1 --seconds 30 \
        --trace 0

Builds the repository (Release) and the benchmark's helpers into
.bench_build/, generates the workload's inputs from --seed, computes the
expected answers with the DOM baseline, runs the workload for --seconds
against the shipped jsq/jsqd binaries, checks every output, and prints
one JSON line: the end-to-end metrics (--trace 0) or the per-layer
metrics of a separate traced run (--trace 1).  README.md explains the
workloads and metrics.  Exits nonzero, after printing the result, when
any output was wrong; exits nonzero without a result when it cannot
build or refuses the build.
"""
import argparse
import dataclasses
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import zlib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
JSQ = os.path.join(BUILD, "jsonski", "examples", "jsq")
JSQD = os.path.join(BUILD, "jsonski", "examples", "jsqd")
TOOL = os.path.join(BUILD, "pb_tool")
LAYERS = os.path.join(BUILD, "pb_layers")

MIB = 1 << 20
CHUNK = 65536
SETUP_REPEATS = 3
MIN_CYCLES = 3
RUN_LIMIT_S = 160

# ---------------------------------------------------------------- inputs

# file-scan: the Table 5 large-record queries, the early-answer probes,
# `$` (one value spanning the document), a 10-query set, a descendant
# and a ~10%-selective filter.  (name, dataset, queries, print?)
TT_SET = [
    "$[*].text", "$[*].id", "$[*].user.id", "$[*].user.screen_name",
    "$[*].user.followers_count", "$[*].en.urls[*].url",
    "$[*].en.hashtags[*].text", "$[*].coordinates", "$[*].place.name",
    "$[*].lang",
]
FILE_SCAN_QUERIES = [
    ("TT1", "TT", ["$[*].en.urls[*].url"], True),
    ("TT2", "TT", ["$[*].text"], False),
    ("BB1", "BB", ["$.pd[*].cp[1:3].id"], True),
    ("BB2", "BB", ["$.pd[*].vc[*].cha"], False),
    ("GMD1", "GMD", ["$[*].rt[*].lg[*].st[*].dt.tx"], False),
    ("GMD2", "GMD", ["$[*].atm"], True),
    ("NSPL1", "NSPL", ["$.mt.vw.co[*].nm"], True),
    ("NSPL2", "NSPL", ["$.dt[*][*][2:4]"], False),
    ("WP1", "WP", ["$[*].cl.P150[*].ms.pty"], True),
    ("WP2", "WP", ["$[10:21].cl.P150[*].ms.pty"], True),
    ("early", "TT", ["$[10:20].text"], True),
    ("root", "TT", ["$"], False),
    ("set10", "TT", TT_SET, False),
    ("desc", "TT", ["$..url"], True),
    ("filter", "TT", ["$[?(@.rtc < 100)].id"], True),
]
FILE_SCAN_DATASETS = ["TT", "BB", "GMD", "NSPL", "WP"]
FILE_SCAN_DOC_BYTES = 32 * MIB
# record-feed: per-record queries over NDJSON feeds.
RECORD_FEED_QUERIES = [
    ("TT.text", "TT", ["$.text"], True),
    ("TT.urls", "TT", ["$.en.urls[*].url"], False),
    ("WM.nm", "WM", ["$.nm"], True),
    ("WM.pr", "WM", ["$.bmrpr.pr"], False),
]
FEED_BYTES = 32 * MIB
# The traced run's layer corpus: the same shapes, smaller.
LAYER_DOC_BYTES = 8 * MIB
LAYER_FEED_BYTES = 8 * MIB

# service-mix: request shapes over tweet arrays.
SVC_QUERIES = [
    "$[*].text", "$[*].user.screen_name", "$[*].en.urls[*].url",
    "$[*].id", "$[2:5].text", "$[?(@.rtc < 100)].id",
]
SVC_UNIQUE_QUERY = "$[0:{N}].id"  # {N} is a fresh number per request
SVC_POOL_BODIES = 48               # 4-64 KB single-query bodies
SVC_BIG_BODIES = 3                 # ~1 MB bodies
SVC_DOC_BODIES = 24                # doc= pool, 32 KB each
SVC_DOC_BODY_BYTES = 32 * 1024
# Sized so the doc= pool's indexes are about twice the cache.
SVC_DOC_CACHE_BYTES = 1536 * 1024
SVC_MIX = [("single", 0.70), ("set10", 0.10), ("doc", 0.12),
           ("big", 0.03), ("unique", 0.05)]
# Loopback latency here is mostly thread wake-ups, which cost more, and
# drift more with the host, the more idle the CPUs are: the nominal rung
# is a busy one, well below the rate where a backlog starts.
SVC_NOMINAL_RPS = 1600
# One round of the ladder: (offered rate, slice ms).  A run repeats the
# round, so every rung's samples spread over the whole run and a slow
# second of the host lands in one slice of each rung, not in one rung.
SVC_LADDER = [(400, 500), (800, 500), (SVC_NOMINAL_RPS, 1000),
              (3200, 500)]
NOMINAL_RUNG = [rate for rate, _ in SVC_LADDER].index(SVC_NOMINAL_RPS)
SVC_P90_LIMIT_MS = 5.0


class BenchError(Exception):
    """The benchmark cannot run: no result is printed, exit is nonzero."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def gen_seed(seed, salt):
    """Generator seed for one input, derived from the run's --seed."""
    digest = hashlib.sha256(f"{seed}/{salt}".encode()).digest()
    return int.from_bytes(digest[:7], "little") + 1


def prepare(workdir, gens, expects):
    """Run pb_tool prepare: generate inputs, return DOM digests.

    gens: (kind, dataset, bytes, seed, path); expects: (kind, path,
    query).  Returns one (count, bytes, crc) per expect, in order."""
    os.makedirs(workdir, exist_ok=True)
    spec = os.path.join(workdir, "prepare.spec")
    with open(spec, "w") as f:
        for g in gens:
            f.write("\t".join(str(x) for x in g) + "\n")
        for e in expects:
            f.write("\t".join(e) + "\n")
    out = subprocess.run([TOOL, "prepare", spec], stdout=subprocess.PIPE,
                         check=True).stdout.decode()
    digests = [tuple(int(x) for x in line.split("\t"))
               for line in out.splitlines()]
    if len(digests) != len(expects):
        raise BenchError("pb_tool prepare returned the wrong line count")
    return digests


# ---------------------------------------------------------------- build

def run_checked(cmd, what):
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise BenchError(f"{what} failed ({res.returncode})")


def build(trace):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("the repository sources are not beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    targets = ["jsq", "jsqd", "pb_tool"] + (["pb_layers"] if trace else [])
    run_checked(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets,
                "cmake build")


def read_cmake_cache(path):
    values = {}
    with open(path) as f:
        for line in f:
            if ":" in line and "=" in line and \
                    not line.startswith(("#", "//")):
                key, rest = line.split(":", 1)
                values[key] = rest.split("=", 1)[1].strip()
    return values


def guard(cache, tool_env, jsq_profile):
    """Refuse builds that are not the shipped program.  Returns a list of
    reasons; empty means the build may be measured."""
    reasons = []
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        reasons.append("CMAKE_BUILD_TYPE is %r, not Release"
                       % cache.get("CMAKE_BUILD_TYPE"))
    if cache.get("JSONSKI_TELEMETRY", "OFF").upper() in ("ON", "1", "TRUE",
                                                         "YES", "Y"):
        reasons.append("JSONSKI_TELEMETRY=ON build (runs 3.4-3.9x slower)")
    if not tool_env.get("ndebug"):
        reasons.append("assertions compiled in (NDEBUG unset)")
    if tool_env.get("telemetry") or jsq_profile.get("telemetry_compiled"):
        reasons.append("telemetry hooks compiled in")
    return reasons


def src_facts():
    """Line count and content digest of src/ (the checkout may not be a
    git repository, so the digest stands in for the commit)."""
    lines = 0
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            lines += data.count(b"\n")
            digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def environment(seed):
    cache = read_cmake_cache(os.path.join(BUILD, "CMakeCache.txt"))
    tool_env = json.loads(subprocess.run(
        [TOOL, "env"], stdout=subprocess.PIPE, check=True).stdout)
    probe = os.path.join(BUILD, "guard-probe.json")
    with open(probe, "w") as f:
        f.write('{"a": [1, 2]}')
    profile = json.loads(subprocess.run(
        [JSQ, "-p", "$.a", probe], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, check=True).stdout)
    reasons = guard(cache, tool_env, profile)
    if reasons:
        raise BenchError("refusing to measure: " + "; ".join(reasons))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        commit = res.stdout.decode().strip() or None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines, digest = src_facts()
    uname = os.uname()
    return {
        "kernel": f"{uname.sysname} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": tool_env["compiler"],
        "simd_kernel": tool_env["simd_kernel"],
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "commit": commit,
        "src_digest": digest,
        "src_lines": lines,
        "seed": seed,
    }


# ---------------------------------------------------------------- tracing

class Tracer:
    """Spans in memory (name, start, end, parent, request id), written
    out when the run ends.  Disabled tracers record nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._next = 1

    def add(self, name, start, end, parent=0, req=None):
        if not self.enabled:
            return 0
        sid = self._next
        self._next += 1
        self.spans.append({"id": sid, "name": name, "start": start,
                           "end": end, "parent": parent, "req": req})
        return sid

    def adopt(self, spans, parent):
        """Append spans recorded by a helper program under @p parent."""
        remap = {0: parent}
        for s in sorted(spans, key=lambda s: s["id"]):
            remap[s["id"]] = self._next
            self._next += 1
        for s in spans:
            self.spans.append(dict(s, id=remap[s["id"]],
                                   parent=remap.get(s["parent"], parent)))

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans,
                       "self_ns": stats.self_times(self.spans)}, f)


# ---------------------------------------------------------------- jsq runs

@dataclasses.dataclass
class Invocation:
    """One jsq command line of a closed-loop workload and its check."""
    key: str
    args: list
    stdin_path: str
    input_bytes: int
    whole: bool             # whole-input mode, else streaming
    expect: list            # DOM (count, bytes, crc) per query
    queries: list
    printing: bool
    records: int = 0

    def correct(self, out):
        if len(self.queries) > 1:
            want = "".join(f"q{i} {q}: {d[0]}\n"
                           for i, (q, d) in enumerate(zip(self.queries,
                                                          self.expect)))
            return out == want.encode()
        count, nbytes, crc = self.expect[0]
        if self.printing:
            return (len(out) == nbytes and zlib.crc32(out) == crc
                    and out.count(b"\n") == count)
        return out == b"%d\n" % count


def invoke(args, stdin_path=None):
    """Run one process to completion: (stdout, exit code, seconds,
    rusage).  Reaped with wait4 so its peak RSS is exact."""
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdin=stdin, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        try:
            out = p.stdout.read()
            _, status, rusage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        elapsed = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    finally:
        if stdin_path:
            stdin.close()
    return out, p.returncode, elapsed, rusage


def closed_loop(invocations, seconds, tracer, parent=0):
    """Run the invocations round-robin, one process at a time, until
    --seconds have passed (and at least MIN_CYCLES full cycles)."""
    samples = {inv.key: [] for inv in invocations}
    rss = {inv.key: [] for inv in invocations}
    attempted = failed = 0
    start = time.monotonic()
    cycles = 0
    while True:
        for inv in invocations:
            if cycles >= MIN_CYCLES and time.monotonic() - start >= seconds:
                return samples, rss, attempted, failed
            t0 = time.monotonic_ns()
            out, code, elapsed, rusage = invoke(inv.args, inv.stdin_path)
            tracer.add("jsq", t0, time.monotonic_ns(), parent, inv.key)
            attempted += 1
            if code != 0 or not inv.correct(out):
                failed += 1
                log(f"MISMATCH {inv.key}: exit {code}, {len(out)} bytes out")
            samples[inv.key].append(elapsed)
            rss[inv.key].append(stats.rss_mb(rusage))
        cycles += 1


def jsq_metrics(invocations, samples, rss):
    """End-to-end metrics of a closed-loop jsq workload."""
    med = {k: stats.median(v) for k, v in samples.items()}

    def mb_s(whole):
        picked = [i for i in invocations if i.whole == whole]
        return (sum(i.input_bytes for i in picked) / 1e6
                / sum(med[i.key] for i in picked))

    pooled = [t for v in samples.values() for t in v]
    return {
        "whole_mb_s": (mb_s(True), "MB/s"),
        "stream_mb_s": (mb_s(False), "MB/s"),
        "p50_ms": (stats.percentile(pooled, 50) * 1e3, "ms"),
        "peak_rss_mb": (max(stats.median(rss[i.key]) for i in invocations
                            if not i.whole), "MB"),
    }


def setup_file_scan(seed, doc_bytes, workdir):
    docs = {ds: os.path.join(workdir, f"{ds}.json")
            for ds in FILE_SCAN_DATASETS}
    gens = [("large", ds, doc_bytes, gen_seed(seed, ds), docs[ds])
            for ds in FILE_SCAN_DATASETS]
    expects = [("doc", docs[ds], q) for _, ds, qs, _ in FILE_SCAN_QUERIES
               for q in qs]
    digests = iter(prepare(workdir, gens, expects))
    invocations = []
    for name, ds, qs, printing in FILE_SCAN_QUERIES:
        expect = [next(digests) for _ in qs]
        size = os.path.getsize(docs[ds])
        for whole in (True, False):
            args = [JSQ] + ([] if whole else ["--chunk-bytes", str(CHUNK)])
            args += ([] if printing else ["-c"]) + [",".join(qs), docs[ds]]
            invocations.append(Invocation(
                f"{name}/{'whole' if whole else 'chunked'}", args, None,
                size, whole, expect, qs, printing))
    return {"invocations": invocations, "docs": docs}


def setup_record_feed(seed, feed_bytes, workdir):
    feeds = {ds: os.path.join(workdir, f"{ds}.ndjson") for ds in ("TT", "WM")}
    gens = [("small", ds, feed_bytes, gen_seed(seed, "feed-" + ds), path)
            for ds, path in feeds.items()]
    expects = [("records", feeds[ds], qs[0])
               for _, ds, qs, _ in RECORD_FEED_QUERIES]
    digests = prepare(workdir, gens, expects)
    invocations = []
    for (name, ds, qs, printing), expect in zip(RECORD_FEED_QUERIES, digests):
        path = feeds[ds]
        with open(path, "rb") as f:
            records = sum(1 for _ in f)
        size = os.path.getsize(path)
        for whole in (True, False):
            # whole: the file argument (materialized, then split);
            # stream: stdin through RecordReader's fixed window.
            args = [JSQ, "-r"] + ([] if printing else ["-c"]) + [qs[0]]
            invocations.append(Invocation(
                f"{name}/{'file' if whole else 'stdin'}",
                args + ([path] if whole else []), None if whole else path,
                size, whole, [expect], qs, printing, records))
    return {"invocations": invocations, "feeds": feeds}


# ---------------------------------------------------------------- service

class Jsqd:
    """A jsqd child on loopback; stop() reaps it and keeps its rusage."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [JSQD, "-p", "0", "--shards", "1", "--workers", "2",
             "--doc-cache-bytes", str(SVC_DOC_CACHE_BYTES)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.rusage = None
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise BenchError("jsqd did not start: " + line.strip())
            self.port = int(line.split("listening on ")[1].split()[0]
                            .rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.close()
        return self.rusage


def setup_service(seed, workdir):
    bodies, gens = [], []

    def body(name, nbytes):
        path = os.path.join(workdir, f"{name}.json")
        gens.append(("large", "TT", nbytes, gen_seed(seed, name), path))
        bodies.append(path)
        return len(bodies) - 1

    # Sizes on a fixed geometric grid over 4-64 KB: the seed changes the
    # content, never the size mix, so runs on different seeds compare.
    pool = [body(f"pool{i}", int(4096 * 16 ** ((i + 0.5) / SVC_POOL_BODIES)))
            for i in range(SVC_POOL_BODIES)]
    big = [body(f"big{i}", 1 << 20) for i in range(SVC_BIG_BODIES)]
    docs = [body(f"doc{i}", SVC_DOC_BODY_BYTES) for i in range(SVC_DOC_BODIES)]
    # Expected digests: every query of the mix over every body it meets.
    pairs = [(b, q) for b in pool for q in SVC_QUERIES + TT_SET]
    pairs += [(b, "$[*].en.urls[*].url") for b in big]
    pairs += [(b, "$[*].user.screen_name") for b in docs]
    pairs = list(dict.fromkeys(pairs))
    digests = prepare(workdir, gens,
                      [("doc", bodies[b], q) for b, q in pairs])
    want = dict(zip(pairs, digests))

    templates = []  # (kind, body, count_only, doc_id, unique, queries)

    def tmpl(kind, b, count_only, queries, doc_id="-", unique=False,
             expect_queries=None):
        exp = [want[(b, q)] for q in (expect_queries or queries)]
        templates.append({"kind": kind, "body": b, "count": count_only,
                          "doc": doc_id, "unique": unique,
                          "queries": queries, "expect": exp})
        return len(templates) - 1

    by_kind = {"single": [], "set10": [], "doc": [], "big": [], "unique": []}
    for b in pool:
        for q in SVC_QUERIES:
            for count_only in (False, True):
                by_kind["single"].append(tmpl("single", b, count_only, [q]))
        by_kind["set10"].append(tmpl("set10", b, True, TT_SET))
        by_kind["unique"].append(tmpl("unique", b, True, [SVC_UNIQUE_QUERY],
                                      unique=True,
                                      expect_queries=["$[*].id"]))
    for b in big:
        by_kind["big"].append(tmpl("big", b, True, ["$[*].en.urls[*].url"]))
    for i, b in enumerate(docs):
        by_kind["doc"].append(tmpl("doc", b, False, ["$[*].user.screen_name"],
                                   doc_id=f"d{i}"))

    kinds, weights = zip(*SVC_MIX)
    draws = random.Random(gen_seed(seed, "mix"))

    def schedule(seconds, rungs=range(len(SVC_LADDER))):
        """Rounds of the ladder's @p rungs filling @p seconds: (rung,
        rate, ms, template sequence) per slice."""
        round_ms = sum(SVC_LADDER[g][1] for g in rungs)
        rounds = max(1, round(seconds * 1000 / round_ms))
        return [(g, rate, ms, [draws.choice(by_kind[k]) for k in
                               draws.choices(kinds, weights,
                                             k=rate * ms // 1000)])
                for _ in range(rounds)
                for g, (rate, ms) in enumerate(SVC_LADDER) if g in rungs]

    return {"bodies": bodies, "templates": templates, "schedule": schedule,
            "workdir": workdir, "jsqd": Jsqd()}


def run_client(ctx, slices, workdir):
    """Drive ctx's jsqd with pb_tool client over @p slices (rung, rate,
    ms, template sequence).  Returns the per-request records (each
    tagged with its slice and rung), the !stats scrapes per slice and
    each slice's elapsed microseconds."""
    spec = os.path.join(workdir, "client.spec")
    out_path = os.path.join(workdir, "client.out")
    with open(spec, "w") as f:
        f.write(f"port\t{ctx['jsqd'].port}\n")
        for path in ctx["bodies"]:
            f.write(f"body\t{path}\n")
        for t in ctx["templates"]:
            exp = ",".join(f"{c}:{b}:{crc}" for c, b, crc in t["expect"])
            f.write("\t".join(["tmpl", str(t["body"]), str(int(t["count"])),
                               t["doc"], str(int(t["unique"])),
                               "\x1f".join(t["queries"]), exp]) + "\n")
        for _, rate, _, seq in slices:
            f.write(f"slice\t{rate}\t{','.join(map(str, seq))}\n")
    subprocess.run([TOOL, "client", spec, out_path], check=True)
    reqs, scrapes, elapsed = [], {}, {}
    with open(out_path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "req":
                r = dict(zip(("slice", "tmpl", "sched", "lag", "connect",
                              "first", "done", "correct"),
                             map(int, p[1:])))
                r["rung"] = slices[r["slice"]][0]
                reqs.append(r)
            elif p[0] == "stats":
                scrapes[(int(p[1]), p[2])] = list(map(int, p[3:]))
            elif p[0] == "slice":
                elapsed[int(p[1])] = int(p[3])
    return reqs, scrapes, elapsed


def latency_ms(r):
    """Request latency from its scheduled send, ms."""
    return (r["done"] - r["sched"]) / 1e3


def rung_summary(reqs, slices, elapsed, rung):
    """Latency, achieved rate and verdict of one rung over its slices."""
    ids = [i for i, s in enumerate(slices) if s[0] == rung]
    mine = [r for r in reqs if r["rung"] == rung]
    lat = [latency_ms(r) for r in mine]
    bad = sum(1 for r in mine if not r["correct"])
    # A growing backlog: some request left more than a tenth of its
    # slice after its schedule (the generator fell behind the rate).
    backlog = any(r["lag"] / 1e3 > 0.1 * slices[r["slice"]][2] for r in mine)
    p90 = stats.percentile(lat, 90)
    return {
        "rate": slices[ids[0]][1], "requests": len(mine), "failed": bad,
        "p50_ms": stats.percentile(lat, 50), "p90_ms": p90,
        "p99_ms": stats.percentile(lat, 99),
        "achieved_rps": len(mine) / (sum(elapsed[i] for i in ids) / 1e6),
        "backlog": backlog,
        "meets": bad == 0 and p90 <= SVC_P90_LIMIT_MS and not backlog,
    }


def service_metrics(ctx, reqs, slices, elapsed):
    """End-to-end metrics of the service-mix, from the nominal rung."""
    sizes = [os.path.getsize(p) for p in ctx["bodies"]]
    nominal = [r for r in reqs if r["rung"] == NOMINAL_RUNG]

    def mb_s(doc):
        # The median request's body MB per second of its latency.
        return stats.median([
            sizes[ctx["templates"][r["tmpl"]]["body"]] / 1e6
            / (latency_ms(r) / 1e3) for r in nominal
            if (ctx["templates"][r["tmpl"]]["doc"] != "-") == doc])

    summaries = [rung_summary(reqs, slices, elapsed, g)
                 for g in sorted({s[0] for s in slices})]
    passing = [s["achieved_rps"] for s in summaries if s["meets"]]
    metrics = {
        "whole_mb_s": (mb_s(True), "MB/s"),
        "stream_mb_s": (mb_s(False), "MB/s"),
        "p50_ms": (stats.median([latency_ms(r) for r in nominal]), "ms"),
    }
    return metrics, summaries, (max(passing) if passing else 0.0)


# ---------------------------------------------------------------- workloads

def setup_workload(name, seed):
    workdir = os.path.join(WORK, name)
    if name == "file-scan":
        return setup_file_scan(seed, FILE_SCAN_DOC_BYTES, workdir)
    if name == "record-feed":
        return setup_record_feed(seed, FEED_BYTES, workdir)
    return setup_service(seed, workdir)


def teardown(ctx):
    if "jsqd" in ctx:
        ctx["jsqd"].stop()


def timed_setup(name, seed, repeats):
    """Set up @p repeats times (each from scratch); keep the last
    context and report the median set-up time."""
    times, ctx = [], None
    for _ in range(repeats):
        if ctx is not None:
            teardown(ctx)
        t0 = time.perf_counter()
        ctx = setup_workload(name, seed)
        times.append(time.perf_counter() - t0)
    return ctx, stats.median(times), times


def measure(name, ctx, seconds, tracer, parent=0):
    """Run workload @p name for @p seconds: (metrics, attempted, failed,
    diagnostics)."""
    if name == "service-mix":
        slices = ctx["schedule"](seconds)
        t0 = time.monotonic_ns()
        reqs, scrapes, elapsed = run_client(ctx, slices, ctx["workdir"])
        tracer.add("service.client", t0, time.monotonic_ns(), parent)
        metrics, summaries, max_rps = service_metrics(ctx, reqs, slices,
                                                      elapsed)
        failed = sum(1 for r in reqs if not r["correct"])
        return metrics, len(reqs), failed, {
            "rungs": summaries, "svc_max_rps": max_rps, "reqs": reqs,
            "scrapes": scrapes, "slices": slices}
    samples, rss, attempted, failed = closed_loop(ctx["invocations"],
                                                  seconds, tracer, parent)
    metrics = jsq_metrics(ctx["invocations"], samples, rss)
    pooled = [t * 1e3 for v in samples.values() for t in v]
    diag = {"p90_ms": stats.percentile(pooled, 90),
            "p99_ms": stats.percentile(pooled, 99),
            "median_ms": {k: stats.median(v) * 1e3
                          for k, v in samples.items()},
            "samples": {k: len(v) for k, v in samples.items()}}
    if name == "record-feed":
        med = {k: stats.median(v) for k, v in samples.items()}
        inv = ctx["invocations"]
        diag["records_s"] = (sum(i.records for i in inv if not i.whole)
                             / sum(med[i.key] for i in inv if not i.whole))
    return metrics, attempted, failed, diag


# ---------------------------------------------------------------- traced run

def traced_run(name, seed, seconds, tracer):
    """The per-layer metrics: the workload untraced then traced for the
    overhead ratio, then every layer timed from outside on the layer
    corpus.  Returns (metrics, attempted, failed)."""
    root = tracer.add("run", time.monotonic_ns(), 0)
    live = []  # contexts whose jsqd must be stopped
    try:
        ctx, _, _ = timed_setup(name, seed, 1)
        live.append(ctx)
        m0, a0, f0, _ = measure(name, ctx, seconds / 3, Tracer(False))
        m1, a1, f1, d1 = measure(name, ctx, seconds / 3, tracer, root)
        attempted, failed = a0 + a1, f0 + f1
        overhead = m1["p50_ms"][0] / m0["p50_ms"][0]
        if name == "service-mix":
            svc = (ctx, d1)
        else:
            teardown(ctx)
            svc_ctx = setup_service(seed, os.path.join(WORK, "layers-svc"))
            live.append(svc_ctx)
            nominal_only = dict(svc_ctx, schedule=lambda s: svc_ctx[
                "schedule"](s, [NOMINAL_RUNG]))
            _, a2, f2, d2 = measure("service-mix", nominal_only, 3, tracer,
                                    root)
            attempted, failed = attempted + a2, failed + f2
            svc = (svc_ctx, d2)
        metrics = layer_metrics(seed, tracer, root, svc)
    finally:
        for c in live:
            teardown(c)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.spans[0]["end"] = time.monotonic_ns()
    return metrics, attempted, failed


def layer_metrics(seed, tracer, root, svc):
    svc_ctx, svc_diag = svc
    workdir = os.path.join(WORK, "layers")
    fs = setup_file_scan(seed, LAYER_DOC_BYTES, workdir)
    rf = setup_record_feed(seed, LAYER_FEED_BYTES, workdir)
    nominal_reqs = [r for r in svc_diag["reqs"] if r["rung"] == NOMINAL_RUNG]

    # pb_layers: in-process calls into kernels, intervals, ski, path,
    # index and the direct engine floor for the service requests.
    spec = os.path.join(workdir, "layers.spec")
    with open(spec, "w") as f:
        for ds, path in fs["docs"].items():
            f.write(f"doc\t{path}\n")
        for qname, ds, qs, _ in FILE_SCAN_QUERIES:
            kind = "multi" if len(qs) > 1 else (
                "early" if qname in ("early", "NSPL1") else "query")
            f.write(f"{kind}\t{fs['docs'][ds]}\t" + "\x1f".join(qs) + "\n")
        f.write(f"feed\t{rf['feeds']['TT']}\t$.text\n")
        for r in nominal_reqs:
            t = svc_ctx["templates"][r["tmpl"]]
            queries = [q.replace("{N}", "1000000") for q in t["queries"]]
            f.write(f"direct\t{svc_ctx['bodies'][t['body']]}\t"
                    f"{int(t['count'])}\t" + "\x1f".join(queries) + "\n")
        for t in svc_ctx["templates"]:
            if t["doc"] != "-":
                f.write(f"indexdoc\t{svc_ctx['bodies'][t['body']]}\t"
                        f"{t['queries'][0]}\n")
        for q in SVC_QUERIES + [",".join(TT_SET)]:
            f.write(f"compile\t{q}\n")
    out_path = os.path.join(workdir, "layers.out")
    t0 = time.monotonic_ns()
    subprocess.run([LAYERS, spec, out_path], check=True)
    lay = tracer.add("pb_layers", t0, time.monotonic_ns(), root)
    with open(out_path) as f:
        result = json.load(f)
    tracer.adopt(result["spans"], lay)
    metrics = {k: (v[0], v[1]) for k, v in result["metrics"].items()}

    # jsq: process floor, whole-file load, chunked overhead, emission.
    tt = fs["docs"]["TT"]
    t0 = time.monotonic_ns()

    def med_ms(args, reps=11):
        times = []
        for _ in range(reps):
            out, code, elapsed, _ = invoke(args)
            if code != 0:
                raise BenchError(f"{args} exited {code}")
            times.append(elapsed)
        return stats.median(times) * 1e3, out

    chunk = ["--chunk-bytes", str(CHUNK)]
    spawn, _ = med_ms([JSQ, "-e", "$.a"], 21)
    whole, _ = med_ms([JSQ, "-c", "$[*].text", tt])
    chunked, _ = med_ms([JSQ] + chunk + ["-c", "$[*].text", tt])
    # Emission: every tweet printed (the whole document) against counted.
    counting, _ = med_ms([JSQ] + chunk + ["-c", "$[*]", tt])
    printing, out = med_ms([JSQ] + chunk + ["$[*]", tt])
    tracer.add("jsq.probes", t0, time.monotonic_ns(), root)
    metrics["jsq.spawn_ms"] = (spawn, "ms")
    metrics["jsq.load_ms"] = (whole - chunked, "ms")
    count_ms = result["solo_ms"][tt + "\t$[*].text"]
    metrics["jsq.overhead_ms"] = (chunked - count_ms, "ms")
    metrics["jsq.emit_mb_s"] = (len(out) / 1e6 / ((printing - counting) / 1e3)
                                if printing > counting else 0.0, "MB/s")

    # service: wire share, connection set-up, first byte, caches, lag.
    lat_sent = [(r["done"] - r["sched"] - r["lag"]) for r in nominal_reqs]
    firsts = [r["first"] - r["lag"] for r in nominal_reqs if r["first"] >= 0]
    direct = result["metrics"]["service.direct_us_p50"][0]
    scr = svc_diag["scrapes"]
    d = [0, 0, 0, 0]
    for i, sl in enumerate(svc_diag["slices"]):
        if sl[0] == NOMINAL_RUNG:
            d = [t + a - b for t, a, b in zip(d, scr[(i, "after")],
                                              scr[(i, "before")])]
    metrics["service.wire_us_p50"] = (stats.percentile(lat_sent, 50) - direct,
                                      "us")
    metrics["service.connect_us_p50"] = (
        stats.percentile([r["connect"] for r in nominal_reqs], 50), "us")
    metrics["service.first_byte_us_p50"] = (stats.percentile(firsts, 50)
                                            if firsts else 0.0, "us")
    metrics["service.plan_cache_hit_ratio"] = (
        d[0] / (d[0] + d[1]) if d[0] + d[1] else 0.0, "ratio")
    metrics["service.doc_cache_hit_ratio"] = (
        d[2] / (d[2] + d[3]) if d[2] + d[3] else 0.0, "ratio")
    metrics["service.gen_lag_us_p90"] = (
        stats.percentile([r["lag"] for r in nominal_reqs], 90), "us")
    return metrics


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["file-scan", "record-feed", "service-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    def overdue(signum, frame):
        raise BenchError("run exceeded its time limit")

    # A terminated run still stops the processes it started (the
    # finally blocks and subprocess.run's cleanup run on SystemExit).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    try:
        build(args.trace)
        # Past the build, a run must finish well inside three minutes.
        signal.signal(signal.SIGALRM, overdue)
        signal.alarm(RUN_LIMIT_S)
        env = environment(args.seed)
        log("environment: " + json.dumps(env))
        tracer = Tracer(bool(args.trace))
        diag = {}
        if args.trace:
            metrics, attempted, failed = traced_run(
                args.workload, args.seed, args.seconds, tracer)
        else:
            ctx, setup_s, setup_times = timed_setup(args.workload, args.seed,
                                                    SETUP_REPEATS)
            try:
                metrics, attempted, failed, diag = measure(
                    args.workload, ctx, args.seconds, tracer)
            finally:
                teardown(ctx)
            if "jsqd" in ctx:
                metrics["peak_rss_mb"] = (stats.rss_mb(ctx["jsqd"].rusage),
                                          "MB")
            metrics["setup_s"] = (setup_s, "s")
            diag["setup_times_s"] = setup_times
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    signal.alarm(0)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        log("perfbench: measured metrics differ from BENCHMARK.json: "
            f"{sorted({m['name'] for m in declared} ^ set(metrics))}")
        return 2
    fail_ratio = failed / attempted if attempted else 1.0
    diag.pop("reqs", None)
    diag.pop("scrapes", None)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "attempted": attempted, "failed": failed,
              "fail_ratio": fail_ratio,
              "metrics": {k: v[0] for k, v in metrics.items()},
              "diagnostics": diag}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    if args.trace:
        tracer.write(os.path.join(BUILD, "traces", stem + ".json"))
        by_layer = {}
        for name, ns in stats.self_times(tracer.spans).items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0) + ns
        log("self time by layer (ms): " + json.dumps(
            {k: round(v / 1e6, 3) for k, v in sorted(by_layer.items())}))
    log("diagnostics: " + json.dumps(diag, default=str))
    log(f"fail_ratio: {fail_ratio} ({failed}/{attempted})")
    for k, (v, unit) in sorted(metrics.items()):
        log(f"  {k:32s} {v:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
