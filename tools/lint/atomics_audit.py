#!/usr/bin/env python3
"""Memory-order discipline lint and mutation tester for the concurrent layer.

Subcommands
-----------
  list      Enumerate every memory-order annotation site in scope, with its
            stable mutant ID and the weakening that would be applied.
  check     Lint mode (CI). Scope is discovered automatically: every .hpp and
            .cpp under src/ except src/verify/ (the model itself wraps raw
            atomics by design). Checks:
              raw-atomic        std::atomic / std::atomic_thread_fence /
                                std::atomic_flag outside verify::. A justified
                                exception carries a
                                `// lint:allow(raw-atomic): <reason>` pragma in
                                the comment block directly above the site.
              bare-volatile     `volatile` is not a synchronization tool.
              implicit-seq-cst  every atomic operation must name its order, so
                                each site is a deliberate, mutation-tested
                                decision.
              order-comment     every memory-order site must carry an ordering
                                comment (same line or within the 3 preceding
                                lines) that names an order or a
                                synchronization concept — the protocol is
                                documented where it is implemented.
              cancel-poll       every parallel worker loop in src/sssp/ (a
                                .cpp or header that calls team.run, or a
                                .cpp that drives the engine via
                                wasp_sssp_seeded like the incremental repair
                                loop or drains a remote-queue channel via
                                grab_all) must poll the CancelToken
                                (stop_requested / poll_cancel / poll); an
                                unpollable algorithm wedges the service
                                layer's deadline machinery.
  selftest  Run the checks against tools/lint/testdata/ fixtures and require
            each bad fixture to be flagged and each good one to pass — the
            negative tests for the linter itself (wired into ctest).
  mutate    Apply a single mutant in place (debugging aid; restore with git).
  test      The mutation run: weaken each ordering annotation one at a time,
            rebuild test_verify in a WASP_VERIFY build tree, and require the
            suite to kill the mutant. Survivors must be waived in
            tools/lint/mutant_waivers.txt AND documented in
            docs/CONCURRENCY.md, and the kill rate over non-waived mutants
            must meet --kill-rate (default 0.9). Ends with a campaign summary
            table: mutant -> killing test + seed, or the waiver reference.

A mutant ID is `<FILE-ABBREV>-<hash6>` where hash6 is the first 6 hex digits
of SHA-256 over (repo-relative path, the code text of the line, the order
being weakened, and the occurrence index among identical lines). IDs are
stable under line-number drift — adding or moving code does not rename
mutants — and change only when the site's own text changes, which is exactly
when its waiver analysis must be revisited. `list` is the source of truth,
and the waiver file is cross-checked against docs/CONCURRENCY.md so a stale
waiver is caught.

Only the standard library is used; no dependencies.
"""

import argparse
import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

# --- scope ----------------------------------------------------------------

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
TESTDATA = REPO / "tools" / "lint" / "testdata"

# src/verify/ is the model: it wraps std::atomic on purpose and its internal
# synchronization is below the model (instrumenting it would recurse).
EXCLUDE_PREFIX = "src/verify/"


def discover_scope():
    """All C++ sources under src/ except the verify model, repo-relative."""
    files = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(EXCLUDE_PREFIX):
            continue
        files.append(rel)
    return files


# Default mutation targets: the two stealing structures, the spinlock (the
# only load-bearing synchronization the StealingMultiQueue has left —
# docs/CONCURRENCY.md), the curr-board publication protocol, and the Wasp
# scheduler loop itself (steal epochs, termination scan), which the seeded
# end-to-end harness in test_verify exercises.
MUTATE_SCOPE = [
    "src/concurrent/chase_lev_deque.hpp",
    "src/concurrent/stealing_multiqueue.hpp",
    "src/concurrent/spinlock.hpp",
    "src/concurrent/remote_queue.hpp",
    "src/sssp/curr_board.hpp",
    "src/sssp/async_loop.hpp",
    "src/sssp/wasp.cpp",
]

ABBREV = {
    "chase_lev_deque.hpp": "CLD",
    "stealing_multiqueue.hpp": "SMQ",
    "spinlock.hpp": "SL",
    "remote_queue.hpp": "RQ",
    "curr_board.hpp": "CURR",
    "async_loop.hpp": "QD",
    "multiqueue.hpp": "MQH",
    "multiqueue.cpp": "MQ",
    "chunk.hpp": "CHK",
    "dary_heap.hpp": "DH",
    "frontier_bag.hpp": "FB",
    "wasp.cpp": "WASP",
    "common.hpp": "DIST",
    "cancel.hpp": "CXL",
    "service.hpp": "SVH",
    "service.cpp": "SVC",
    "delta.hpp": "DLTH",
    "delta.cpp": "DLT",
    "incremental.hpp": "INCH",
    "incremental.cpp": "INC",
}

WAIVER_FILE = REPO / "tools" / "lint" / "mutant_waivers.txt"
DOCS_FILE = REPO / "docs" / "CONCURRENCY.md"

ORDER_RE = re.compile(
    r"std::memory_order_(seq_cst|acq_rel|release|acquire|consume|relaxed)\b")

# Receivers whose .load/.store are not atomics (method-name collisions).
NON_ATOMIC_RECEIVERS = [
    re.compile(r"dist\s*$"),       # AtomicDistances::load(VertexId)
    re.compile(r"\.dist\s*$"),
    re.compile(r"distances\s*$"),
    re.compile(r"dist_\s*$"),      # AtomicDistances member (Wasp worker)
]


# --- site enumeration -----------------------------------------------------

class Site:
    def __init__(self, path, rel, line, col, order, mutant_id, replacement,
                 context):
        self.path = path          # absolute Path
        self.rel = rel            # repo-relative string
        self.line = line          # 1-based
        self.col = col            # 0-based offset of the match in the line
        self.order = order        # e.g. "release"
        self.mutant_id = mutant_id
        self.replacement = replacement  # weakened order, or None (relaxed)
        self.context = context    # stripped source line

    def describe(self):
        repl = self.replacement or "-"
        return (f"{self.mutant_id:12s} {self.rel}:{self.line:<4d} "
                f"{self.order:>8s} -> {repl:<8s} | {self.context}")


def weakened(order, line_text):
    """The one-step weakening for an ordering, or None if already weakest.

    seq_cst is weakened context-sensitively: a pure load can only lose its
    SC participation down to acquire, a pure store down to release, and
    RMWs/fences down to acq_rel — each the strongest strictly-weaker order,
    so a kill proves the SC property itself is needed.
    """
    if order == "relaxed":
        return None
    if order in ("release", "acquire", "consume", "acq_rel"):
        return "relaxed"
    # seq_cst:
    if ".load(" in line_text:
        return "acquire"
    if ".store(" in line_text:
        return "release"
    return "acq_rel"  # fences, CAS, other RMWs


def site_hash(rel, code_text, order, occurrence):
    """First 6 hex digits of SHA-256 over the site's identity.

    Identity is (path, the line's code text, the order, the occurrence index
    among sites in the same file with identical code text and order) — stable
    under line renumbering, unique for duplicated lines.
    """
    key = f"{rel}|{code_text.strip()}|{order}|{occurrence}"
    return hashlib.sha256(key.encode()).hexdigest()[:6]


def enumerate_sites(files):
    sites = []
    for rel in files:
        path = REPO / rel
        if not path.exists():
            raise SystemExit(f"atomics_audit: missing scope file {rel}")
        seen = {}  # (code_text, order) -> occurrence count
        abbrev = ABBREV.get(path.name, path.stem.upper())
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            for m in ORDER_RE.finditer(code):
                order = m.group(1)
                key = (code.strip(), order)
                occurrence = seen.get(key, 0)
                seen[key] = occurrence + 1
                sites.append(Site(
                    path, rel, lineno, m.start(), order,
                    f"{abbrev}-{site_hash(rel, code, order, occurrence)}",
                    weakened(order, code), line.strip()))
    return sites


def mutable_sites(files):
    return [s for s in enumerate_sites(files) if s.replacement is not None]


# --- lint (check mode) ----------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"[\w\)\]]\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"compare_exchange_strong|compare_exchange_weak)\s*\(")

RAW_ATOMIC_RE = re.compile(
    r"\bstd::(atomic\s*<|atomic_flag\b|atomic_ref\s*<|atomic_thread_fence\b)")

ALLOW_PRAGMA_RE = re.compile(r"lint:allow\(raw-atomic\):\s*\S")

# What counts as an "ordering comment": it names an order or a
# synchronization concept, not just any prose.
ORDER_COMMENT_RE = re.compile(
    r"(relaxed|acquire|acq_rel|release|consume|seq_cst|order|fence|"
    r"synchroniz|happens|pairs with|\bhb\b|\bSC\b|monotonic|publish|race|"
    r"stale|advisory|\block\b|\bCAS\b|owner-only|exclusiv|private|visib)",
    re.IGNORECASE)

# How far above a site its ordering comment (or allow pragma block) may sit.
COMMENT_WINDOW = 3


def balanced_args(text, open_paren):
    """Returns the argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group()),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def allow_pragma_above(lines, lineno):
    """True if the contiguous comment block ending at line `lineno`-1 carries
    a lint:allow(raw-atomic) pragma. `lines` is 0-based raw text."""
    i = lineno - 2  # 0-based index of the line above the site
    while i >= 0:
        stripped = lines[i].strip()
        if not stripped.startswith("//"):
            break
        if ALLOW_PRAGMA_RE.search(stripped):
            return True
        i -= 1
    return False


def line_comment(line):
    """The trailing // comment of a raw source line, or ''."""
    idx = line.find("//")
    return line[idx:] if idx >= 0 else ""


def has_order_comment(lines, lineno):
    """True if the site at 1-based `lineno` carries an ordering comment:
    a trailing comment on its own line, or one found walking upward over at
    most COMMENT_WINDOW code lines — a contiguous comment block encountered
    on the way (e.g. the enclosing function's doc comment) is evaluated as
    a whole, so block position relative to the signature does not matter."""
    if ORDER_COMMENT_RE.search(line_comment(lines[lineno - 1])):
        return True
    skipped = 0
    i = lineno - 2  # 0-based index of the line above the site
    while i >= 0 and skipped <= COMMENT_WINDOW:
        if lines[i].strip().startswith("//"):
            block_hit = False
            while i >= 0 and lines[i].strip().startswith("//"):
                if ORDER_COMMENT_RE.search(lines[i].strip()):
                    block_hit = True
                i -= 1
            if block_hit:
                return True
            skipped += 1  # a non-ordering comment block costs one step
        else:
            if ORDER_COMMENT_RE.search(line_comment(lines[i])):
                return True
            skipped += 1
            i -= 1
    return False


def is_sssp_worker(rel, text):
    """A parallel-algorithm translation unit: launches a worker team, drives
    the engine over warm state (the incremental repair loop), or drains a
    RemoteRelayNetwork channel (the Wasp engine's inbound loop). A header
    counts when it launches the team itself (the round baselines' driver,
    rounds.hpp)."""
    if not rel.startswith("src/sssp/"):
        return False
    if rel.endswith(".hpp"):
        return "team.run(" in text
    return rel.endswith(".cpp") \
        and ("team.run(" in text or "wasp_sssp_seeded(" in text
             or "grab_all(" in text)


def lint_file(rel, path=None, force_worker=None):
    """Returns a list of (line, check, message) findings for one file."""
    path = path or (REPO / rel)
    raw = path.read_text()
    raw_lines = raw.splitlines()
    text = strip_comments(raw)
    findings = []
    allows = []

    def lineno(pos):
        return text.count("\n", 0, pos) + 1

    for m in re.finditer(r"\bvolatile\b", text):
        findings.append((lineno(m.start()), "bare-volatile",
                         "`volatile` is not a synchronization tool; use "
                         "verify::atomic"))

    # Raw atomics bypass the WASP_VERIFY model. A deliberate exception must
    # say so where it happens: `// lint:allow(raw-atomic): <reason>` in the
    # comment block directly above.
    for m in RAW_ATOMIC_RE.finditer(text):
        ln = lineno(m.start())
        if allow_pragma_above(raw_lines, ln):
            allows.append((ln, raw_lines[ln - 1].strip()))
            continue
        findings.append((ln, "raw-atomic",
                         "raw std::atomic in the concurrent layer; use "
                         "verify::atomic so the model sees it, or justify "
                         "with `// lint:allow(raw-atomic): <reason>` above"))

    # Implicit seq_cst: every atomic operation must name its order, so each
    # site is a deliberate, mutation-tested decision.
    for m in ATOMIC_CALL_RE.finditer(text):
        receiver = text[max(0, m.start() - 40):m.start() + 1]
        if any(rx.search(receiver) for rx in NON_ATOMIC_RECEIVERS):
            continue
        args = balanced_args(text, m.end() - 1)
        if "memory_order" not in args:
            findings.append((lineno(m.start()), "implicit-seq-cst",
                             f"atomic {m.group(1)}() without an explicit "
                             "memory_order (implicit seq_cst)"))

    # Ordering comments: the protocol is documented at the site.
    commented = set()
    for lineno_, line in enumerate(raw_lines, 1):
        code = line.split("//")[0]
        if not ORDER_RE.search(code):
            continue
        if lineno_ in commented:
            continue
        if has_order_comment(raw_lines, lineno_):
            commented.add(lineno_)
            continue
        # A continuation line of a multi-line call — or a site in the same
        # protocol block — inherits the comment covering a site at most
        # COMMENT_WINDOW lines above it.
        if any(p in commented
               for p in range(lineno_ - 1, lineno_ - COMMENT_WINDOW - 1, -1)):
            commented.add(lineno_)
            continue
        findings.append((lineno_, "order-comment",
                         "memory-order site without an ordering comment "
                         "(same line or the 3 lines above must say why this "
                         "order is sufficient)"))

    worker = force_worker if force_worker is not None \
        else is_sssp_worker(rel, text)
    if worker and "stop_requested(" not in text \
            and "poll_cancel(" not in text and "->poll()" not in text:
        findings.append((1, "cancel-poll",
                         "parallel worker loop never polls the CancelToken "
                         "(stop_requested()/poll_cancel()); deadlines and "
                         "cancellation cannot reach this algorithm"))

    return findings, allows


def cmd_check(args):
    scope = args.files or discover_scope()
    total = 0
    n_allows = 0
    for rel in scope:
        findings, allows = lint_file(rel)
        n_allows += len(allows)
        for line, check, msg in findings:
            print(f"{rel}:{line}: [{check}] {msg}")
            total += 1
        if args.verbose:
            for line, text in allows:
                print(f"{rel}:{line}: allow(raw-atomic): {text}")
    if total:
        print(f"atomics_audit: {total} finding(s) across {len(scope)} files")
        return 1
    print(f"atomics_audit: clean ({len(scope)} files auto-discovered, "
          f"{n_allows} allow(raw-atomic) pragma(s))")
    return 0


# --- linter self-test ------------------------------------------------------

# fixture -> (expected check names, force_worker)
SELFTEST_FIXTURES = {
    "raw_atomic_bad.cpp": ({"raw-atomic"}, None),
    "raw_atomic_allowed.cpp": (set(), None),
    "implicit_seq_cst_bad.cpp": ({"implicit-seq-cst"}, None),
    "order_comment_bad.cpp": ({"order-comment"}, None),
    "volatile_bad.cpp": ({"bare-volatile"}, None),
    "worker_no_poll_bad.cpp": ({"cancel-poll"}, True),
    "worker_polls_ok.cpp": (set(), True),
}


def cmd_selftest(args):
    failures = []
    for name, (expected, force_worker) in sorted(SELFTEST_FIXTURES.items()):
        path = TESTDATA / name
        if not path.exists():
            failures.append(f"{name}: fixture missing")
            continue
        findings, _ = lint_file(f"tools/lint/testdata/{name}", path=path,
                                force_worker=force_worker)
        got = {check for _, check, _ in findings}
        if expected and not expected <= got:
            failures.append(
                f"{name}: expected {sorted(expected)} to fire, got "
                f"{sorted(got) or 'nothing'} — the check has gone blind")
        if not expected and got:
            failures.append(
                f"{name}: expected clean, got {sorted(got)} — false positive")
        verdict = "ok" if not failures or failures[-1].split(":")[0] != name \
            else "FAIL"
        print(f"  {name:28s} expect={sorted(expected) or ['clean']} "
              f"got={sorted(got) or ['clean']} {verdict}")
    if failures:
        print("atomics_audit selftest: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"atomics_audit selftest: PASS ({len(SELFTEST_FIXTURES)} fixtures)")
    return 0


# --- mutation -------------------------------------------------------------

def apply_mutant(site):
    """Rewrites the site's order in its file; returns the original text."""
    original = site.path.read_text()
    lines = original.splitlines(keepends=True)
    line = lines[site.line - 1]
    old = f"std::memory_order_{site.order}"
    new = f"std::memory_order_{site.replacement}"
    if not line[site.col:].startswith(old):
        raise SystemExit(
            f"atomics_audit: {site.mutant_id}: site drifted "
            f"({site.rel}:{site.line} col {site.col} no longer holds {old}); "
            "re-run list")
    lines[site.line - 1] = line[:site.col] + new + line[site.col + len(old):]
    site.path.write_text("".join(lines))
    return original


def read_waivers():
    """Returns {mutant_id: reason}."""
    waivers = {}
    if not WAIVER_FILE.exists():
        return waivers
    for raw in WAIVER_FILE.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        waivers[parts[0]] = parts[1] if len(parts) > 1 else ""
    return waivers


def cmd_list(args):
    sites = enumerate_sites(args.files or MUTATE_SCOPE)
    waivers = read_waivers()
    for s in sites:
        tag = ""
        if s.replacement is None:
            tag = "  [relaxed: no mutant]"
        elif s.mutant_id in waivers:
            tag = f"  [waived: {waivers[s.mutant_id]}]"
        print(s.describe() + tag)
    n_mut = sum(1 for s in sites if s.replacement is not None)
    print(f"{len(sites)} site(s), {n_mut} mutable")
    return 0


def cmd_mutate(args):
    sites = mutable_sites(args.files or MUTATE_SCOPE)
    for s in sites:
        if s.mutant_id == args.id:
            apply_mutant(s)
            print(f"applied {s.mutant_id}: {s.rel}:{s.line} "
                  f"{s.order} -> {s.replacement} (restore with git restore, "
                  "or hand-edit for untracked files)")
            return 0
    raise SystemExit(f"atomics_audit: unknown mutant id {args.id}")


FAILED_TEST_RE = re.compile(r"\[\s*FAILED\s*\]\s+(\S+)")
SEED_RE = re.compile(r"(?:WASP_VERIFY_SEED=|\bseed[ =])(\d+)")


def run_suite(build_dir, timeout, jobs, gtest_filter):
    """Builds and runs test_verify; returns (verdict, detail, killer)."""
    build = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "test_verify",
         "-j", str(jobs)],
        capture_output=True, text=True)
    if build.returncode != 0:
        return "build-error", build.stderr[-2000:], None
    cmd = [str(Path(build_dir) / "tests" / "test_verify"),
           "--gtest_brief=1"]
    if gtest_filter:
        cmd.append(f"--gtest_filter={gtest_filter}")
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", "timeout (hang/livelock counts as detection)", \
            "timeout"
    if run.returncode != 0:
        out = run.stdout + run.stderr
        failed = FAILED_TEST_RE.findall(out)
        seeds = SEED_RE.findall(out)
        killer = failed[0] if failed else "unknown-test"
        if seeds:
            killer += f" (seed {seeds[0]})"
        evidence = ""
        for line in out.splitlines():
            if "FAILED" in line or "Failure" in line or "seed" in line:
                evidence = line.strip()
                break
        return "killed", evidence, killer
    return "survived", "", None


def campaign_table(results, waivers):
    """The summary table: every mutant -> how it is accounted for."""
    rows = []
    for r in results:
        if r["verdict"] == "killed":
            account = f"killed by {r['killer']}"
        elif r["waived"]:
            account = f"waived: {waivers.get(r['id'], '')}"
        else:
            account = f"UNACCOUNTED ({r['verdict']})"
        rows.append((r["id"], f"{r['file'].split('/')[-1]}:{r['line']}",
                     r["mutation"], f"{r['seconds']:.1f}s", account))
    widths = [max(len(row[i]) for row in rows) for i in range(4)] \
        if rows else [0] * 4
    lines = ["", "campaign summary:"]
    for row in rows:
        lines.append("  " + "  ".join(
            row[i].ljust(widths[i]) for i in range(4)) + "  " + row[4])
    return "\n".join(lines)


def cmd_test(args):
    build_dir = Path(args.build_dir).resolve()
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists() or "WASP_VERIFY:BOOL=ON" not in cache.read_text():
        raise SystemExit(
            f"atomics_audit: {build_dir} is not a WASP_VERIFY=ON build tree; "
            "configure with -DWASP_VERIFY=ON (mutants are killed by the "
            "happens-before model, which a default build compiles out)")

    sites = mutable_sites(args.files or MUTATE_SCOPE)
    if args.only:
        wanted = set(args.only.split(","))
        unknown = wanted - {s.mutant_id for s in sites}
        if unknown:
            raise SystemExit(
                f"atomics_audit: --only names unknown mutants "
                f"{sorted(unknown)}; re-run list (content-hash IDs change "
                "when their line's text changes)")
        sites = [s for s in sites if s.mutant_id in wanted]
    waivers = read_waivers()
    docs = DOCS_FILE.read_text() if DOCS_FILE.exists() else ""

    print(f"atomics_audit: baseline run ({len(sites)} mutants queued)")
    verdict, detail, _ = run_suite(build_dir, args.timeout, args.jobs,
                                   args.filter)
    if verdict != "survived":
        raise SystemExit(
            f"atomics_audit: baseline suite is not green ({verdict}: "
            f"{detail}); fix the tree before mutation testing")

    results = []
    for site in sites:
        t0 = time.monotonic()
        original = apply_mutant(site)
        try:
            verdict, detail, killer = run_suite(build_dir, args.timeout,
                                                args.jobs, args.filter)
        finally:
            site.path.write_text(original)
        elapsed = time.monotonic() - t0
        results.append({
            "id": site.mutant_id,
            "file": site.rel,
            "line": site.line,
            "mutation": f"{site.order} -> {site.replacement}",
            "context": site.context,
            "verdict": verdict,
            "detail": detail,
            "killer": killer,
            "waived": site.mutant_id in waivers,
            "seconds": round(elapsed, 1),
        })
        status = verdict.upper()
        if verdict == "survived" and site.mutant_id in waivers:
            status = "SURVIVED (waived)"
        print(f"  {site.mutant_id:12s} {site.rel}:{site.line:<4d} "
              f"{site.order:>8s}->{site.replacement:<8s} {status:20s} "
              f"[{elapsed:5.1f}s] {detail[:80]}")

    # Restore-sanity rebuild so the tree is never left mutated.
    verdict, detail, _ = run_suite(build_dir, args.timeout, args.jobs,
                                   args.filter)
    if verdict != "survived":
        raise SystemExit(
            f"atomics_audit: tree not green after restore ({detail})")

    report_path = build_dir / "verify_mutants.json"
    report_path.write_text(json.dumps(results, indent=2) + "\n")

    errors = []
    killed = [r for r in results if r["verdict"] == "killed"]
    survived = [r for r in results if r["verdict"] == "survived"]
    build_errors = [r for r in results if r["verdict"] == "build-error"]
    for r in build_errors:
        errors.append(f"{r['id']}: mutant failed to build — weakening map "
                      "produced invalid code")
    for r in survived:
        if not r["waived"]:
            errors.append(
                f"{r['id']} survived un-waived ({r['file']}:{r['line']} "
                f"{r['mutation']}): either the ordering is over-strong "
                "(downgrade it with a comment) or the harness is missing a "
                "schedule (strengthen tests/test_verify.cpp); to defer, add "
                "it to tools/lint/mutant_waivers.txt AND document it in "
                "docs/CONCURRENCY.md")
    tested_ids = {r["id"] for r in results}
    for mid, reason in waivers.items():
        if mid not in docs:
            errors.append(
                f"waiver {mid} is not documented in docs/CONCURRENCY.md "
                "(every survivor needs its invariant analysis on record)")
        if not args.only and args.files is None and mid not in tested_ids:
            errors.append(
                f"waiver {mid} matches no enumerated mutant — the site "
                "changed or vanished; re-run list and refresh the waiver")
    for r in killed:
        if r["waived"]:
            print(f"  note: waiver {r['id']} is stale — the suite now kills "
                  "it; remove the waiver and the docs entry")

    print(campaign_table(results, waivers))

    scored = [r for r in results if not r["waived"]]
    rate = (len([r for r in scored if r["verdict"] == "killed"]) /
            len(scored)) if scored else 1.0
    print(f"\natomics_audit: {len(killed)}/{len(results)} killed "
          f"({len(survived)} survived, {len(build_errors)} build errors); "
          f"kill rate over non-waived mutants: {rate:.0%} "
          f"(floor {args.kill_rate:.0%}); report: {report_path}")
    if rate < args.kill_rate:
        errors.append(f"kill rate {rate:.0%} below floor "
                      f"{args.kill_rate:.0%}")
    if errors:
        print("\natomics_audit: FAIL")
        for e in errors:
            print(f"  - {e}")
        return 1
    print("atomics_audit: PASS")
    return 0


# --- main -----------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_list = sub.add_parser("list", help="enumerate ordering sites")
    p_list.add_argument("--files", nargs="*", default=None)
    p_list.set_defaults(fn=cmd_list)

    p_check = sub.add_parser("check", help="lint the memory-order discipline")
    p_check.add_argument("--files", nargs="*", default=None,
                         help="override the auto-discovered src/ scope")
    p_check.add_argument("--verbose", action="store_true",
                         help="also print the allow(raw-atomic) inventory")
    p_check.set_defaults(fn=cmd_check)

    p_self = sub.add_parser("selftest",
                            help="negative tests for the linter itself")
    p_self.set_defaults(fn=cmd_selftest)

    p_mut = sub.add_parser("mutate", help="apply one mutant in place")
    p_mut.add_argument("--id", required=True)
    p_mut.add_argument("--files", nargs="*", default=None)
    p_mut.set_defaults(fn=cmd_mutate)

    p_test = sub.add_parser("test", help="run the mutation campaign")
    p_test.add_argument("--source-dir", default=str(REPO))
    p_test.add_argument("--build-dir", required=True)
    p_test.add_argument("--files", nargs="*", default=None)
    p_test.add_argument("--only", default=None,
                        help="comma-separated mutant IDs (CI subset)")
    p_test.add_argument("--filter", default=None,
                        help="gtest filter for the kill suite")
    p_test.add_argument("--timeout", type=int, default=180)
    p_test.add_argument("--jobs", type=int, default=0)
    p_test.add_argument("--kill-rate", type=float, default=0.9)
    p_test.set_defaults(fn=cmd_test)

    args = parser.parse_args()
    if getattr(args, "jobs", None) == 0:
        import os
        args.jobs = os.cpu_count() or 4
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
