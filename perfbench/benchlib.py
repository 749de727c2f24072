"""Pure helpers for `run.py`: CLI summary-line parsers, the
median/quartile helper with its sample-count rule, metric-name and unit
validators, and the report-section splitter.

Every parser fails loudly: a missing or reworded summary line raises
`ParseError`, which `run.py` counts as a failed operation. A silent 0
would hide exactly the regressions the benchmark exists to catch.
"""

import re
import statistics


class ParseError(ValueError):
    """A summary line the benchmark relies on is missing or reworded."""


def _one_line(text, pattern, what):
    """The single line of `text` that fully matches `pattern`, as ints."""
    regex = re.compile(pattern)
    found = [m for m in (regex.fullmatch(line.strip()) for line in text.splitlines()) if m]
    if not found:
        raise ParseError(f"no `{what}` line found")
    if len(found) > 1:
        raise ParseError(f"{len(found)} `{what}` lines found, expected one")
    return found[0]


def parse_result_cache(stderr):
    """`result cache: H hits, M misses, S stored (X% hit rate)`."""
    m = _one_line(
        stderr,
        r"result cache: (\d+) hits, (\d+) misses, (\d+) stored \(\d+(?:\.\d+)?% hit rate\)",
        "result cache:",
    )
    return dict(zip(("hits", "misses", "stored"), map(int, m.groups())))


def parse_bug_store(stderr):
    """`bug store: H hits, M misses, S stored, C corrupt (E entries, B bytes on disk)`."""
    m = _one_line(
        stderr,
        r"bug store: (\d+) hits, (\d+) misses, (\d+) stored, (\d+) corrupt "
        r"\((\d+) entries, (\d+) bytes on disk\)",
        "bug store:",
    )
    keys = ("hits", "misses", "stored", "corrupt", "entries", "bytes")
    return dict(zip(keys, map(int, m.groups())))


def parse_emitted(stdout):
    """`Emitted N verified repro files to DIR/ (U reductions withheld as unverified)`."""
    m = _one_line(
        stdout,
        r"Emitted (\d+) verified repro files to (.+)/ \((\d+) reductions withheld as unverified\)",
        "Emitted N verified",
    )
    return {"verified": int(m.group(1)), "dir": m.group(2), "unverified": int(m.group(3))}


def parse_replay(stdout):
    """`Replay: E entries, S still-failing, F fixed, R regressed (K skipped)`."""
    m = _one_line(
        stdout,
        r"Replay: (\d+) entries, (\d+) still-failing, (\d+) fixed, (\d+) regressed "
        r"\((\d+) skipped\)",
        "Replay:",
    )
    keys = ("entries", "still_failing", "fixed", "regressed", "skipped")
    return dict(zip(keys, map(int, m.groups())))


# A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def samples_beyond(n, p):
    """How many of `n` samples lie above the `p`-th percentile."""
    return n * (100 - p) / 100


def summarize(values):
    """Median, quartiles and sample count of a non-empty sample.

    Quartiles come from `statistics.quantiles(values, n=4)`; a single
    sample has all three equal to it. `tail` names the highest of p99,
    p95, p90 and p75 with at least ten samples beyond it, or is None when
    the sample is too small for any of them.
    """
    values = list(values)
    if not values:
        raise ValueError("summarize() needs at least one sample")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    tail = next(
        (p for p in (99, 95, 90, 75) if samples_beyond(len(values), p) >= TAIL_SAMPLES), None
    )
    out = {"n": len(values), "median": median, "q1": q1, "q3": q3, "tail": None}
    if tail is not None:
        out["tail"] = (tail, percentile(values, tail))
    return out


def percentile(values, p):
    """The `p`-th percentile (1..99) by linear interpolation.

    Raises ValueError when fewer than ten samples lie beyond it, so a
    tail figure is never reported from a sample too small to hold one.
    """
    values = list(values)
    if samples_beyond(len(values), p) < TAIL_SAMPLES and p != 50:
        raise ValueError(
            f"p{p} needs {TAIL_SAMPLES} samples beyond it; {len(values)} samples give "
            f"{samples_beyond(len(values), p):g}"
        )
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def grouped_median(groups):
    """Mean of the medians of non-empty groups of samples."""
    medians = [statistics.median(g) for g in groups]
    if not medians:
        raise ValueError("grouped_median() needs at least one group")
    return statistics.fmean(medians)


METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name):
    """Letters, digits, `_`, `.`, `-`; starts with a letter or digit; at most 64."""
    return isinstance(name, str) and METRIC_NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT.fullmatch(unit) is not None


SECTION_HEADER = re.compile(r"^(Table|Figure) (\d+)\. ", re.MULTILINE)


def split_sections(report):
    """Split a full study report into its `tableN` / `figureN` blocks.

    The report joins sections with a blank line, and each section starts
    with a `Table N. ` or `Figure N. ` heading. A block runs from its
    heading to the next heading, so it carries the separating newline,
    which is exactly what printing the section alone appends.
    """
    heads = list(SECTION_HEADER.finditer(report))
    sections = {}
    for i, m in enumerate(heads):
        end = heads[i + 1].start() if i + 1 < len(heads) else len(report)
        sections.setdefault(f"{m.group(1).lower()}{m.group(2)}", report[m.start():end])
    return sections
