"""Plain-text tables over run artifacts.

All renderers take the JSON dict shapes that the run writes to disk (the
dicts `model.JsonReport.to_json_dict` makes of the reports), so a saved run
and a fresh in-process run print identically. `render_runs` is the one
report of run directories: `report.txt`, the tables `piisub run` prints
and `piisub report` all come from it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _fmt(value: object) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_runs(runs: Sequence[tuple[str, dict, dict | None]]) -> str:
    """The report of runs given as (`mode@run_id` label, metrics.json dict,
    regurgitation.json dict or None): the primary and distinctness tables
    over every run, then a regurgitation section per run that has one."""
    metrics_by_run = {label: metrics for label, metrics, _ in runs}
    sections = [primary_table(metrics_by_run), distinctness_table(metrics_by_run)]
    sections += [
        regurgitation_table(label, regurg)
        for label, _, regurg in runs
        if regurg is not None
    ]
    return "\n\n".join(sections) + "\n"


def primary_table(metrics_by_run: Mapping[str, dict]) -> str:
    """One row per run: leak, consistency, length preservation, perplexity."""
    rows = []
    for label, m in metrics_by_run.items():
        rows.append(
            [
                label,
                m["leak"]["rate"],
                m["consistency"]["rate"],
                m["length_preservation_mean"],
                m["perplexity_transformed"],
                m["documents_failed"],
            ]
        )
    return format_table(
        ["mode", "leak", "consistency", "length_pres", "ppl", "failed_docs"], rows
    )


def distinctness_table(metrics_by_run: Mapping[str, dict]) -> str:
    rows = []
    for label, m in metrics_by_run.items():
        for row in m["distinctness"]:
            rows.append(
                [
                    label,
                    row["label"],
                    row["mentions"],
                    row["unique_surrogates"],
                    row["ttr_display"],
                ]
            )
    return format_table(["mode", "label", "mentions", "unique", "ttr"], rows)


def regurgitation_table(label: str, regurg: dict) -> str:
    """The run's copy counts, in a column headed by its label, then one row
    per input pool."""
    header = format_table(
        ["metric", label],
        [
            ["unique_keys", regurg["total_unique"]],
            ["slm_decisions", regurg["slm_decisions"]],
            ["fallback_decisions", regurg["fallback_decisions"]],
            ["output_copies", regurg["output_copies"]],
            ["input_copies", regurg["input_copies"]],
            ["novel", regurg["novel"]],
            ["cross_pool_copies", regurg["cross_pool_copies"]],
        ],
    )
    rows = []
    for name, stats in sorted(regurg["by_input_pool"].items()):
        share = (
            stats["output_copies"] / stats["slm_decisions"]
            if stats["slm_decisions"]
            else None
        )
        rows.append(
            [
                name,
                stats["slm_decisions"],
                stats["output_copies"],
                share,
                stats["input_copies"],
                stats["unique_surrogates"],
                stats["ceiling"],
            ]
        )
    pools = format_table(
        ["pool", "slm", "out_copies", "out_share", "in_copies", "unique", "ceiling"],
        rows,
    )
    return header + "\n\n" + pools


def ner_table(ner: dict) -> str:
    """Variant rows (train spans, P, R, F1, delta vs original) plus Welch pairs."""
    original = ner["scores"].get("original")
    baseline = original["mean"] if original else None
    rows = []
    for name in ner["variant_order"]:
        scores = ner["scores"][name]
        spans = scores["train_spans_by_seed"]
        rows.append(
            [
                name,
                round(sum(spans) / len(spans)) if spans else 0,
                scores["precision_mean"],
                scores["recall_mean"],
                scores["mean"],
                scores["sd_population"],
                scores["sd_sample"],
                None if baseline is None else scores["mean"] - baseline,
            ]
        )
    main = format_table(
        ["variant", "train_spans", "P", "R", "F1", "sd_pop", "sd_sample", "dF1"],
        rows,
    )
    comp_rows: list[list[object]] = []
    for pair, welch in sorted(ner["comparisons"].items()):
        if welch is None:
            comp_rows.append([pair, None, None, None])
        else:
            comp_rows.append([pair, welch["t"], welch["dof"], f"{welch['p']:.2e}"])
    comps = format_table(["comparison", "t", "dof", "p"], comp_rows)
    return main + "\n\n" + comps
