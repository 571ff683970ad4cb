"""Stdio interpreter peer for the external-stdio workload.

Speaks the NDJSON protocol of ``scenefix run --solver external``: one
request per line ({prompt, layout, round}), one reply per line
({updated_prompt, layout, reasoning}). Each reply carries the layout the
builtin solver proposes for the request, so the external path must reach
the same verdicts as the in-process solver. When the solver rejects a
request, the reply omits the required fields and the client marks that
sample errored, as the builtin path would.

    python3 bench/peer.py < requests.ndjson
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scenefix import (  # noqa: E402
    convert_expression,
    parse_expression,
    parse_wire_layout,
    serialize_wire_layout,
    suggest_layout,
)
from scenefix.errors import SceneFixError  # noqa: E402


def reply(request: dict) -> dict:
    prompt = request["prompt"]
    try:
        layout = parse_wire_layout(request["layout"])
        proposal = suggest_layout(convert_expression(parse_expression(prompt), layout), layout)
    except SceneFixError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "updated_prompt": prompt,
        "layout": serialize_wire_layout(proposal.layout),
        "reasoning": "; ".join(proposal.rationale),
    }


def main() -> int:
    for line in sys.stdin:
        if line.strip():
            print(json.dumps(reply(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
