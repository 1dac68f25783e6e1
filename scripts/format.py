#!/usr/bin/env python
"""Auto-format benchmark driver: writes ``artifacts/BENCH_format.json``.

Runs the power-law-skew SpMV loop with plain CSR and with
``RuntimeConfig.autoformat`` enabled (``repro.harness.format_bench``),
prints a summary table, writes the full payload to
``artifacts/BENCH_format.json`` (or ``--output``), and exits non-zero if
any acceptance bar fails:

* the static selector recommends a non-CSR format on the skew matrix;
* the runtime converts to exactly that format (advisor agreement);
* strictly lower summed modeled kernel seconds with autoformat on;
* a bitwise-identical result vector.

Usage::

    PYTHONPATH=src python scripts/format.py [--procs 2] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.format_bench import run_all


def format_payload(payload: dict) -> str:
    advice = payload["static_advice"]
    baseline, advised = payload["csr"], payload["advised"]
    conv = advised["conversions"][0] if advised["conversions"] else {}
    return "\n".join(
        [
            "skew_spmv:",
            f"  matrix:          {baseline['rows']}x{baseline['cols']}, "
            f"nnz {baseline['nnz']}, "
            f"row skew {advice['row_skew']:.1f}x",
            f"  static advice:   {advice['recommended_format']} "
            f"({advice['csr_op_seconds']:.3e}s -> "
            f"{advice['best_op_seconds']:.3e}s per op, "
            f"break-even {advice['break_even_ops']:g} ops)",
            f"  runtime convert: {payload['advised_format']} "
            f"(agrees: {payload['advisor_agrees']}, "
            f"{len(advised['conversions'])} conversion(s))"
            + (
                f", predicted {conv.get('csr_op_seconds', 0):.3e}s -> "
                f"{conv.get('predicted_op_seconds', 0):.3e}s"
                if conv
                else ""
            ),
            f"  kernel seconds:  {baseline['modeled_kernel_seconds']:.6e}s "
            f"-> {advised['modeled_kernel_seconds']:.6e}s "
            f"({payload['kernel_seconds_ratio']:.4f}x)",
            f"  bitwise match:   {payload['bitwise_identical']}",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "artifacts" / "BENCH_format.json",
    )
    args = parser.parse_args(argv)

    payload = run_all(procs=args.procs)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(format_payload(payload))

    failures = []
    if payload["static_advice"]["recommended_format"] == "csr":
        failures.append("selector recommended CSR on the skew matrix")
    if not payload["advised"]["conversions"]:
        failures.append("autoformat runtime performed no conversion")
    if not payload["advisor_agrees"]:
        failures.append(
            f"runtime converted to {payload['advised_format']!r} but the "
            f"advisor recommended "
            f"{payload['static_advice']['recommended_format']!r}"
        )
    if payload["kernel_seconds_ratio"] >= 1.0:
        failures.append("modeled kernel seconds did not drop")
    if not payload["bitwise_identical"]:
        failures.append("advised result is not bitwise identical")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
