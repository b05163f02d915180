#!/usr/bin/env python3
"""homp-lint: project-invariant static analysis for the HOMP runtime.

The runtime's determinism story (DESIGN.md §2: virtual time, seeded PRNGs,
FIFO tie-breaking) and its resilience machinery (docs/RESILIENCE.md) rest on
invariants no compiler flag checks.  This linter checks them statically,
with zero dependencies beyond the Python standard library.

Checks
------
HL001  deferred-ref-capture   Reference-capturing lambda ([&], [&x]) passed
                              to a deferred-execution site (Engine::schedule_at
                              / schedule_after, Link::transfer, and the
                              offload's sched_after / transfer wrappers).
                              The callback outlives the enclosing frame; a
                              by-reference capture of a stack local is a
                              use-after-return that ASan only catches when the
                              event actually fires in a test.
HL002  wall-clock-ban         Wall-clock or ambient-entropy calls
                              (std::chrono::*_clock::now, rand, srand,
                              std::random_device, time(), gettimeofday)
                              outside src/sim/time.h and src/common/prng.h.
                              Simulated paths must draw time from sim::Engine
                              and randomness from common::Prng or runs stop
                              being reproducible.
HL003  include-layering       #include crossing the layer DAG declared in
                              tools/lint/layers.toml.  Only direct includes
                              of files under src/ are checked.
HL004  header-hygiene         Include-guard name must match the header path
                              (src/sim/engine.h -> HOMP_SIM_ENGINE_H); no
                              `using namespace` at any scope in a header.
HL005  dead-telemetry         Every DeviceStats field / RecoveryAction
                              enumerator declared must be referenced outside
                              its declaration — an unread counter is telemetry
                              that silently rotted.  Also applies to the
                              metric-name catalog: an `inline constexpr char
                              kX[]` constant in an obs/ directory that no
                              exporter references is a metric that silently
                              vanished from every dashboard.  Likewise the
                              advisor's report-key roster: such a constant
                              in an advise/ directory that no attribution or
                              report code references is a finding kind that
                              can no longer be emitted.
HL006  untagged-serve-timer   Engine::schedule_at / schedule_after called
                              under src/serve or src/runtime without a
                              generation-tag third argument.  The serving
                              layer's memory-flatness contract
                              (docs/SERVING.md "Timer lifecycle": zero
                              pending events and zero live generations
                              after a drain) holds only because every server
                              and offload timer is cancellable via its tag;
                              an untagged arm outlives the job that armed it,
                              on a server's engine as on an offload's own.
HL007  unordered-export-iter  Range-for over a std::unordered_map /
                              unordered_set declared in the same file, inside
                              code that feeds exports, digests or oracles
                              (src/obs, src/fuzz, or a basename containing
                              report/export/metrics/trace/digest/summary/
                              oracle).  Unordered iteration order varies
                              across libc++/libstdc++ and hash seeds, so
                              anything serialized from it silently stops
                              being byte-identical (the determinism
                              contract in src/sim/engine.h).

Suppression
-----------
Append `// homp-lint: allow(HL001)` (comma-separate several IDs) on the
offending line or the line directly above it.

Exit codes: 0 = clean, 1 = diagnostics emitted, 2 = usage/config error.
"""

import argparse
import bisect
import collections
import json
import multiprocessing
import os
import re
import subprocess
import sys

DEFAULT_EXTS = (".h", ".hpp", ".cpp", ".cc", ".cxx")

# Directories never walked implicitly (fixtures are intentionally bad code;
# build trees hold generated/vendored sources).
SKIP_DIR_NAMES = {"fixtures", ".git"}
SKIP_DIR_PREFIXES = ("build",)

# Files allowed to touch wall clocks / ambient entropy (HL002).
HL002_ALLOWED_SUFFIXES = (
    os.path.join("src", "sim", "time.h"),
    os.path.join("src", "common", "prng.h"),
)

CHECKS = {
    "HL001": "deferred-ref-capture",
    "HL002": "wall-clock-ban",
    "HL003": "include-layering",
    "HL004": "header-hygiene",
    "HL005": "dead-telemetry",
    "HL006": "untagged-serve-timer",
    "HL007": "unordered-export-iter",
}

SUPPRESS_RE = re.compile(r"homp-lint:\s*allow\(([^)]*)\)")


class ConfigError(Exception):
    pass


class Diagnostic:
    __slots__ = ("check_id", "path", "line", "message", "hint")

    def __init__(self, check_id, path, line, message, hint):
        self.check_id = check_id
        self.path = path
        self.line = line
        self.message = message
        self.hint = hint

    def as_dict(self):
        return {
            "id": self.check_id,
            "check": CHECKS[self.check_id],
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self):
        return "%s:%d: %s [%s] %s (fix: %s)" % (
            self.path, self.line, self.check_id, CHECKS[self.check_id],
            self.message, self.hint)


class SourceFile:
    """One parsed source file: raw text, comment/string-blanked text, and a
    newline index so byte offsets map back to 1-based line numbers."""

    def __init__(self, path, text, clean=None):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        # `clean` may be handed in precomputed (the worker pool ships it
        # back so the cross-file pass need not re-blank every file).
        self.clean = _blank_comments_and_strings(text) if clean is None else clean
        self._nl = [i for i, ch in enumerate(text) if ch == "\n"]

    def line_of(self, offset):
        return bisect.bisect_right(self._nl, offset - 1) + 1

    def suppressed(self, line, check_id):
        """True when `line` (1-based) or the line above carries an
        `// homp-lint: allow(<id>)` comment naming check_id."""
        for ln in (line, line - 1):
            if 1 <= ln <= len(self.lines):
                m = SUPPRESS_RE.search(self.lines[ln - 1])
                if m:
                    ids = [t.strip() for t in m.group(1).split(",")]
                    if check_id in ids:
                        return True
        return False


def _blank_comments_and_strings(text):
    """Replace the contents of comments and string/char literals with spaces,
    preserving length and newlines so offsets keep mapping to lines."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            # keep the quotes themselves, blank the payload
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Config (layers.toml)
# ---------------------------------------------------------------------------

def load_layers(path):
    """Parse the [layers] table: `name = ["dep", ...]` entries.  Uses tomllib
    when available (Python >= 3.11) and a sufficient hand parser otherwise."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError("cannot read layer config %s: %s" % (path, e))
    try:
        import tomllib
        data = tomllib.loads(raw.decode("utf-8"))
        layers = data.get("layers", {})
    except ModuleNotFoundError:
        layers = _parse_layers_fallback(raw.decode("utf-8"), path)
    except Exception as e:  # tomllib.TOMLDecodeError
        raise ConfigError("malformed %s: %s" % (path, e))
    if not isinstance(layers, dict) or not layers:
        raise ConfigError("%s: missing or empty [layers] table" % path)
    for name, deps in layers.items():
        if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
            raise ConfigError("%s: layer %r must map to a list of strings"
                              % (path, name))
        for d in deps:
            if d not in layers:
                raise ConfigError("%s: layer %r depends on undeclared layer %r"
                                  % (path, name, d))
    _require_acyclic(layers, path)
    return layers


def _parse_layers_fallback(text, path):
    layers = {}
    in_table = False
    entry_re = re.compile(r'^\s*([\w.-]+)\s*=\s*\[([^\]]*)\]\s*$')
    for line in text.splitlines():
        line = line.split("#", 1)[0].rstrip()
        if not line:
            continue
        if re.match(r"^\s*\[layers\]\s*$", line):
            in_table = True
            continue
        if re.match(r"^\s*\[", line):
            in_table = False
            continue
        if in_table:
            m = entry_re.match(line)
            if not m:
                raise ConfigError("%s: cannot parse line %r" % (path, line))
            deps = [d.strip().strip('"').strip("'")
                    for d in m.group(2).split(",") if d.strip()]
            layers[m.group(1)] = deps
    return layers


def _require_acyclic(layers, path):
    WHITE, GREY, BLACK = 0, 1, 2
    color = {k: WHITE for k in layers}

    def visit(node, stack):
        color[node] = GREY
        for dep in layers[node]:
            if color[dep] == GREY:
                cycle = " -> ".join(stack + [node, dep])
                raise ConfigError("%s: layer graph has a cycle: %s"
                                  % (path, cycle))
            if color[dep] == WHITE:
                visit(dep, stack + [node])
        color[node] = BLACK

    for k in layers:
        if color[k] == WHITE:
            visit(k, [])


# ---------------------------------------------------------------------------
# HL001 — reference captures at deferred-execution sites
# ---------------------------------------------------------------------------

DEFERRED_SITE_RE = re.compile(
    r"(?:\bschedule_at|\bschedule_after|\bsched_after|\btransfer)\s*\(")
LAMBDA_INTRO_RE = re.compile(r"\[([^\[\]]*)\]\s*(?=[({]|mutable\b|->)")


def _matching_paren(clean, open_idx):
    depth = 0
    for i in range(open_idx, len(clean)):
        if clean[i] == "(":
            depth += 1
        elif clean[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(clean) - 1


def check_hl001(sf, diags, strict, exempt_tests):
    if not strict and exempt_tests and _under_tests(sf.path):
        # Test/bench/example frames own the Engine and drive it to completion
        # before returning, so stack captures legitimately outlive every
        # scheduled event.  See docs/STATIC_ANALYSIS.md.
        return
    for m in DEFERRED_SITE_RE.finditer(sf.clean):
        open_idx = m.end() - 1
        close_idx = _matching_paren(sf.clean, open_idx)
        args = sf.clean[open_idx + 1:close_idx]
        for lm in LAMBDA_INTRO_RE.finditer(args):
            caps = [c.strip() for c in lm.group(1).split(",") if c.strip()]
            bad = [c for c in caps if c.startswith("&")]
            if not bad:
                continue
            line = sf.line_of(m.start())
            if sf.suppressed(line, "HL001"):
                continue
            diags.append(Diagnostic(
                "HL001", sf.path, line,
                "lambda with by-reference capture (%s) passed to a "
                "deferred-execution site; the callback can outlive the "
                "captured frame" % ", ".join(bad),
                "capture by value, move ownership into the lambda "
                "(x = std::move(x)), or hold the state in the owning object "
                "and capture `this`"))


def _under_tests(path):
    parts = _parts(path)
    return any(p in ("tests", "bench", "examples") for p in parts)


def _parts(path):
    return [p for p in os.path.normpath(path).split(os.sep) if p not in ("", ".")]


# ---------------------------------------------------------------------------
# HL002 — wall-clock / ambient-entropy ban
# ---------------------------------------------------------------------------

HL002_PATTERNS = [
    (re.compile(r"std::chrono::\w*_clock\s*::\s*now"
                r"|\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now"),
     "wall-clock read (chrono clock ::now)"),
    (re.compile(r"\bstd::random_device\b|(?<![\w:])random_device\s*[({]"),
     "ambient entropy (std::random_device)"),
    (re.compile(r"\bstd::s?rand\s*\(|(?<![\w.:>])s?rand\s*\("),
     "C PRNG (rand/srand) seeded from ambient state"),
    (re.compile(r"\bstd::time\s*\(|(?<![\w.:>])(?:time|gettimeofday|clock_gettime)\s*\("),
     "wall-clock read (C time API)"),
]


def check_hl002(sf, diags):
    norm = os.path.normpath(sf.path)
    if any(norm.endswith(suf) for suf in HL002_ALLOWED_SUFFIXES):
        return
    for rx, what in HL002_PATTERNS:
        for m in rx.finditer(sf.clean):
            line = sf.line_of(m.start())
            if sf.suppressed(line, "HL002"):
                continue
            diags.append(Diagnostic(
                "HL002", sf.path, line,
                "%s in simulated code; virtual time and seeded PRNGs are the "
                "only reproducible sources" % what,
                "take time from sim::Engine::now() and randomness from "
                "common::Prng; if this file is a sanctioned boundary, add it "
                "to HL002_ALLOWED_SUFFIXES"))


# ---------------------------------------------------------------------------
# HL003 — include layering against layers.toml
# ---------------------------------------------------------------------------

# Matched against the comment-blanked text to skip commented-out includes;
# the quoted path itself is read back from the raw text at the same offsets
# (the sanitizer blanks string-literal payloads but preserves length).
INCLUDE_SITE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"', re.M)


def src_layer_of(path, layers):
    """Layer name for a file under .../src/<layer>/..., else None."""
    parts = _parts(path)
    idxs = [i for i, p in enumerate(parts) if p == "src"]
    if not idxs:
        return None
    i = idxs[-1]
    if i + 1 < len(parts) - 0 and i + 1 < len(parts):
        cand = parts[i + 1]
        if cand in layers and i + 2 <= len(parts) - 1:
            return cand
    return None


def check_hl003(sf, diags, layers):
    layer = src_layer_of(sf.path, layers)
    if layer is None:
        return
    allowed = set(layers[layer]) | {layer}
    for m in INCLUDE_SITE_RE.finditer(sf.clean):
        close = sf.text.find('"', m.end())
        if close == -1:
            continue
        target = sf.text[m.end():close].split("/", 1)[0]
        if target not in layers:
            continue  # not a project layer include (e.g. local header)
        if target in allowed:
            continue
        line = sf.line_of(m.start())
        if sf.suppressed(line, "HL003"):
            continue
        diags.append(Diagnostic(
            "HL003", sf.path, line,
            "layer '%s' must not include layer '%s' (allowed: %s)"
            % (layer, target, ", ".join(sorted(allowed))),
            "route the dependency through a lower layer, or (if the edge is "
            "intentional) add it to tools/lint/layers.toml in this PR"))


# ---------------------------------------------------------------------------
# HL004 — header hygiene
# ---------------------------------------------------------------------------

GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.M)
GUARD_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)", re.M)
USING_NS_RE = re.compile(r"^[ \t]*using\s+namespace\b", re.M)


def expected_guard(path):
    """HOMP_<PATH_FROM_SRC> for files under src/; otherwise only the
    `<STEM>_H` suffix is required (returns None for exact, suffix string)."""
    parts = _parts(path)
    idxs = [i for i, p in enumerate(parts) if p == "src"]
    if idxs:
        rel = parts[idxs[-1] + 1:]
        if rel:
            flat = "_".join(rel)
            return "HOMP_" + re.sub(r"[^A-Za-z0-9]", "_", flat).upper(), None
    stem = os.path.splitext(os.path.basename(path))[0]
    return None, re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H"


def check_hl004(sf, diags):
    if not sf.path.endswith((".h", ".hpp")):
        return
    exact, suffix = expected_guard(sf.path)
    gm = GUARD_IFNDEF_RE.search(sf.clean)
    if gm is None:
        if not sf.suppressed(1, "HL004"):
            diags.append(Diagnostic(
                "HL004", sf.path, 1,
                "header has no include guard",
                "open with #ifndef %s / #define %s"
                % (exact or ("<STEM>_H",), exact or "<STEM>_H")))
    else:
        guard = gm.group(1)
        line = sf.line_of(gm.start())
        ok = (guard == exact) if exact is not None else guard.endswith(suffix)
        if not ok and not sf.suppressed(line, "HL004"):
            want = exact if exact is not None else "*%s" % suffix
            diags.append(Diagnostic(
                "HL004", sf.path, line,
                "include guard '%s' does not match header path (expected %s)"
                % (guard, want),
                "rename the guard in the #ifndef/#define/#endif trio to match "
                "the file's path"))
        else:
            dm = GUARD_DEFINE_RE.search(sf.clean, gm.end())
            if dm is None or dm.group(1) != guard:
                dline = sf.line_of(dm.start()) if dm else line
                if not sf.suppressed(dline, "HL004"):
                    diags.append(Diagnostic(
                        "HL004", sf.path, dline,
                        "#define does not repeat the include-guard name '%s'"
                        % guard,
                        "make the #define directly after #ifndef use the same "
                        "macro name"))
    for m in USING_NS_RE.finditer(sf.clean):
        line = sf.line_of(m.start())
        if sf.suppressed(line, "HL004"):
            continue
        diags.append(Diagnostic(
            "HL004", sf.path, line,
            "`using namespace` in a header leaks into every includer",
            "qualify names explicitly or move the using-directive into a "
            ".cpp file"))


# ---------------------------------------------------------------------------
# HL005 — dead telemetry counters
# ---------------------------------------------------------------------------

MEMBER_RE = re.compile(
    r"^\s*(?!using\b|typedef\b|static_assert\b|friend\b|public\b|private\b"
    r"|protected\b|struct\b|class\b|enum\b|template\b|return\b|if\b|for\b)"
    r"[\w:<>,*&\s]+?[\s&*](\w+)\s*(?:\[[^\]]*\]\s*)?(?:=[^;]*)?;",
    re.M)
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*(?:=[^,}]*)?,?", re.M)
# Rostered string-constant catalogs: metric names (src/obs/metric_names.h)
# in any file with an `obs` path component, and advisor report keys
# (src/advise/report_keys.h) in any file with an `advise` component.
METRIC_CONST_RE = re.compile(r"\binline\s+constexpr\s+char\s+(k\w+)\s*\[\s*\]")
WORD_RE = re.compile(r"\w+")


def _find_block(clean, decl_re):
    m = decl_re.search(clean)
    if not m:
        return None
    open_idx = clean.find("{", m.end() - 1)
    if open_idx == -1:
        return None
    depth = 0
    for i in range(open_idx, len(clean)):
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
            if depth == 0:
                return m.start(), open_idx, i
    return None


def check_hl005(files, diags, struct_name, enum_name):
    decls = []  # (name, kind, SourceFile, body_span, line)
    for sf in files:
        const_kind = None
        if "obs" in _parts(sf.path):
            const_kind = "metric-name constant"
        elif "advise" in _parts(sf.path):
            const_kind = "report-key constant"
        if const_kind:
            for mm in METRIC_CONST_RE.finditer(sf.clean):
                end = sf.clean.find(";", mm.end())
                end = len(sf.clean) if end == -1 else end + 1
                decls.append((mm.group(1), const_kind, sf,
                              (mm.start(), end), sf.line_of(mm.start(1))))
        span = _find_block(
            sf.clean, re.compile(r"\bstruct\s+%s\b[^;{]*" % re.escape(struct_name)))
        if span:
            start, op, cl = span
            body = sf.clean[op + 1:cl]
            for mm in MEMBER_RE.finditer(body):
                name = mm.group(1)
                if "(" in body[mm.start():mm.end()]:
                    continue  # member function, not a counter
                decls.append((name, "%s field" % struct_name, sf,
                              (op + 1 + mm.start(), op + 1 + mm.end()),
                              sf.line_of(op + 1 + mm.start(1))))
        span = _find_block(
            sf.clean, re.compile(r"\benum\s+(?:class\s+)?%s\b[^;{]*" % re.escape(enum_name)))
        if span:
            start, op, cl = span
            body = sf.clean[op + 1:cl]
            for mm in ENUMERATOR_RE.finditer(body):
                decls.append((mm.group(1), "%s enumerator" % enum_name, sf,
                              (op + 1 + mm.start(), op + 1 + mm.end()),
                              sf.line_of(op + 1 + mm.start(1))))
    # One identifier index for the whole tree: a name is referenced when it
    # occurs more often than inside its own declaration span (spans start
    # and end between words, so they hold whole tokens).
    uses = collections.Counter()
    for sf in files:
        uses.update(WORD_RE.findall(sf.clean))
    for name, kind, decl_sf, (b0, b1), line in decls:
        own = WORD_RE.findall(decl_sf.clean, b0, b1).count(name)
        if uses[name] <= own and not decl_sf.suppressed(line, "HL005"):
            diags.append(Diagnostic(
                "HL005", decl_sf.path, line,
                "%s '%s' is never referenced outside its declaration — "
                "dead telemetry" % (kind, name),
                "wire the counter into the code path that should maintain "
                "it, surface it in stats output, or delete it"))


# ---------------------------------------------------------------------------
# HL006 — untagged timers in the serving and runtime layers
# ---------------------------------------------------------------------------

TIMER_SITE_RE = re.compile(r"\bschedule_(?:at|after)\s*\(")


def _in_timer_layer(path):
    """src/serve and src/runtime, whose every timer belongs to a server or
    an offload execution that revokes it by generation."""
    parts = _parts(path)
    return any(a == "src" and b in ("serve", "runtime")
               for a, b in zip(parts, parts[1:]))


def _top_level_commas(args):
    """Commas at nesting depth 0 of a call's argument span.  Lambdas,
    braced initializers and subscripts all open a deeper level, so their
    internal commas (captures, parameter lists, init elements) don't count."""
    depth = 0
    count = 0
    for ch in args:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            count += 1
    return count


def check_hl006(sf, diags):
    if not _in_timer_layer(sf.path):
        return
    for m in TIMER_SITE_RE.finditer(sf.clean):
        open_idx = m.end() - 1
        close_idx = _matching_paren(sf.clean, open_idx)
        span = sf.clean[open_idx + 1:close_idx]
        # (time, callback, tag) has two top-level commas; fewer means the
        # generation tag was omitted and the timer is uncancellable.
        if _top_level_commas(span) >= 2:
            continue
        line = sf.line_of(m.start())
        if sf.suppressed(line, "HL006"):
            continue
        diags.append(Diagnostic(
            "HL006", sf.path, line,
            "schedule_at/schedule_after in src/serve or src/runtime without "
            "a generation tag; an untagged timer cannot be cancelled and "
            "breaks the drained-server memory-flatness contract",
            "pass a sim::Engine::GenTag third argument (from "
            "Engine::new_generation()) so the owner can "
            "cancel_generation() it; a deliberately server-lifetime arm "
            "may be suppressed with // homp-lint: allow(HL006)"))


# ---------------------------------------------------------------------------
# HL007 — unordered-container iteration in export/digest/oracle paths
# ---------------------------------------------------------------------------

# Files whose output is expected to be byte-stable: the observability and
# fuzz layers (exports, digests, oracles) plus anything whose name says it
# serializes (report writers, metric exporters, trace/summary emitters).
HL007_BASENAME_TOKENS = (
    "report", "export", "metrics", "trace", "digest", "summary", "oracle")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(([^();]*):\s*((?:\w+(?:\.|->))*(\w+))\s*\)")


def _in_export_scope(path):
    parts = _parts(path)
    if any(a == "src" and b in ("obs", "fuzz")
           for a, b in zip(parts, parts[1:])):
        return True
    base = os.path.basename(path).lower()
    return any(tok in base for tok in HL007_BASENAME_TOKENS)


def _unordered_names(clean):
    """Variable/member names declared with an unordered container type in
    this file (declaration = `unordered_map<...> name`)."""
    names = set()
    n = len(clean)
    for m in UNORDERED_DECL_RE.finditer(clean):
        i = clean.find("<", m.start())
        depth, j = 0, i
        while j < n:
            if clean[j] == "<":
                depth += 1
            elif clean[j] == ">":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= n:
            continue
        mm = re.match(r"[\s&*]*(\w+)", clean[j + 1:])
        if mm and mm.group(1) not in ("const", "constexpr"):
            names.add(mm.group(1))
    return names


def check_hl007(sf, diags):
    if not _in_export_scope(sf.path):
        return
    unordered = _unordered_names(sf.clean)
    if not unordered:
        return
    for m in RANGE_FOR_RE.finditer(sf.clean):
        if m.group(3) not in unordered:
            continue
        line = sf.line_of(m.start())
        if sf.suppressed(line, "HL007"):
            continue
        diags.append(Diagnostic(
            "HL007", sf.path, line,
            "iteration over unordered container '%s' in an export/digest/"
            "oracle path; unordered order differs across standard libraries "
            "and hash seeds, so serialized output stops being byte-identical"
            % m.group(3),
            "use std::map/std::set, or copy the keys out and sort before "
            "iterating; a genuinely order-free fold (count, sum into a "
            "commutative accumulator) may be suppressed with "
            "// homp-lint: allow(HL007)"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(paths):
    files, errors = [], []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)  # explicit files are always scanned
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in SKIP_DIR_NAMES
                    and not d.startswith(SKIP_DIR_PREFIXES))
                for n in sorted(names):
                    if n.endswith(DEFAULT_EXTS):
                        files.append(os.path.join(root, n))
        else:
            errors.append(p)
    return files, errors


def _run_file_checks(sf, diags, enabled, strict, layers):
    """Every per-file check (HL005 is cross-file and runs separately)."""
    if "HL001" in enabled:
        check_hl001(sf, diags, strict, exempt_tests=True)
    if "HL002" in enabled:
        check_hl002(sf, diags)
    if "HL003" in enabled:
        check_hl003(sf, diags, layers)
    if "HL004" in enabled:
        check_hl004(sf, diags)
    if "HL006" in enabled:
        check_hl006(sf, diags)
    if "HL007" in enabled:
        check_hl007(sf, diags)


def _scan_worker(task):
    """Pool worker: parse one file and run the per-file checks.  Returns
    (path, text, clean, diag_tuples, error) — plain picklable types; the
    parent reassembles SourceFile (for HL005) and Diagnostic objects."""
    path, enabled, strict, layers = task
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return (path, None, None, [], str(e))
    sf = SourceFile(path, text)
    diags = []
    _run_file_checks(sf, diags, enabled, strict, layers)
    return (path, text, sf.clean,
            [(d.check_id, d.path, d.line, d.message, d.hint) for d in diags],
            None)


def changed_files():
    """Paths touched relative to HEAD (staged, unstaged, and untracked),
    as git reports them — the --changed-only work list."""
    out = []
    for cmd in (["git", "diff", "--name-only", "HEAD", "--"],
                ["git", "ls-files", "--others", "--exclude-standard"]):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            raise ConfigError("--changed-only needs a git checkout: %s" % e)
        out.extend(line.strip() for line in r.stdout.splitlines()
                   if line.strip())
    return set(os.path.normpath(p) for p in out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="homp_lint.py",
        description="HOMP project-invariant static analysis (HL001-HL007).")
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories to scan (default: src tests)")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON on stdout")
    ap.add_argument("--config", default=None,
                    help="layer DAG TOML (default: layers.toml next to this "
                         "script)")
    ap.add_argument("--strict", action="store_true",
                    help="disable built-in path exemptions (HL001 under "
                         "tests/bench/examples); used by the fixture suite")
    ap.add_argument("--checks", default=",".join(sorted(CHECKS)),
                    help="comma-separated check IDs to run (default: all)")
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker processes for the scan (0 = auto: one per "
                         "core, capped at 8; 1 = serial)")
    ap.add_argument("--changed-only", action="store_true",
                    help="scan only files git reports as changed relative "
                         "to HEAD (plus untracked); disables the cross-file "
                         "HL005 pass, which needs the whole tree.  CI runs "
                         "full-tree mode; this is the fast local loop")
    ap.add_argument("--telemetry-struct", default="DeviceStats")
    ap.add_argument("--telemetry-enum", default="RecoveryAction")
    ap.add_argument("--list-checks", action="store_true",
                    help="print the check catalog and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid in sorted(CHECKS):
            print("%s  %s" % (cid, CHECKS[cid]))
        return 0

    enabled = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = enabled - set(CHECKS)
    if unknown:
        print("homp-lint: unknown check id(s): %s" % ", ".join(sorted(unknown)),
              file=sys.stderr)
        return 2

    paths = args.paths or ["src", "tests"]
    script_dir = os.path.dirname(os.path.abspath(__file__))
    config = args.config or os.path.join(script_dir, "layers.toml")
    try:
        layers = load_layers(config)
    except ConfigError as e:
        print("homp-lint: %s" % e, file=sys.stderr)
        return 2

    file_paths, missing = collect_files(paths)
    if missing:
        print("homp-lint: no such file or directory: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    if args.changed_only:
        try:
            changed = changed_files()
        except ConfigError as e:
            print("homp-lint: %s" % e, file=sys.stderr)
            return 2
        file_paths = [p for p in file_paths
                      if os.path.normpath(p) in changed
                      or os.path.normpath(os.path.relpath(p)) in changed]
        if "HL005" in enabled:
            # Dead-telemetry needs every reference site in the tree; a
            # partial scan would flag counters whose users simply were
            # not read.  CI's full-tree run keeps HL005 coverage.
            enabled.discard("HL005")
            print("homp-lint: --changed-only disables HL005 "
                  "(cross-file; needs the full tree)", file=sys.stderr)

    jobs = args.jobs if args.jobs > 0 else min(8, os.cpu_count() or 1)
    need_sources = "HL005" in enabled
    diags = []
    files = []
    if jobs > 1 and len(file_paths) > 8:
        tasks = [(p, enabled, args.strict, layers) for p in file_paths]
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_scan_worker, tasks, chunksize=8)
        for path, text, clean, dtuples, err in results:
            if err is not None:
                print("homp-lint: cannot read %s: %s" % (path, err),
                      file=sys.stderr)
                return 2
            if need_sources:
                files.append(SourceFile(path, text, clean))
            diags.extend(Diagnostic(*t) for t in dtuples)
    else:
        for p in file_paths:
            try:
                with open(p, encoding="utf-8", errors="replace") as f:
                    sf = SourceFile(p, f.read())
            except OSError as e:
                print("homp-lint: cannot read %s: %s" % (p, e),
                      file=sys.stderr)
                return 2
            if need_sources:
                files.append(sf)
            _run_file_checks(sf, diags, enabled, args.strict, layers)
    if "HL005" in enabled:
        check_hl005(files, diags, args.telemetry_struct, args.telemetry_enum)

    # Nested deferred sites can attribute one lambda to several enclosing
    # call spans; identical (file, line, check, message) rows are one finding.
    seen = set()
    unique = []
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.check_id)):
        key = (d.path, d.line, d.check_id, d.message)
        if key not in seen:
            seen.add(key)
            unique.append(d)
    diags = unique
    if args.json:
        counts = {}
        for d in diags:
            counts[d.check_id] = counts.get(d.check_id, 0) + 1
        print(json.dumps({
            "version": 1,
            "files_scanned": len(file_paths),
            "diagnostics": [d.as_dict() for d in diags],
            "counts": counts,
        }, indent=2))
    else:
        for d in diags:
            print(d.render())
        if diags:
            print("homp-lint: %d diagnostic(s) in %d file(s) scanned"
                  % (len(diags), len(file_paths)), file=sys.stderr)
    return 1 if diags else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; not a lint failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
