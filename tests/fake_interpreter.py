"""Scripted external interpreter for protocol tests.

Speaks the NDJSON stdio protocol: one JSON request per line on stdin
({prompt, layout, round}), one JSON response per line on stdout
({updated_prompt, layout, reasoning}).  The single positional argument
selects a behavior:

  echo           return the request layout unchanged
  solve          repair the layout with the package's own solver
  malformed      reply with a line that is not JSON
  missing-field  reply without the required fields
  bad-range      reply with an out-of-range depth
  invent         reply with an object the prompt never mentions
  sleep          stall long enough to trip client timeouts
  stall-first    stall for a second on round 0, then echo; echo other rounds
  flood-first    on round 0 echo with 3 MiB of reasoning, a reply line over
                 the 1 MiB cap; echo other rounds
  close          exit immediately without replying
  deep           reply with JSON nested 100,000 arrays deep
  long-int       reply with a JSON integer of 5000 digits
  not-utf8       reply with a line that is not UTF-8
  split          echo, written in two flushes with a 50 ms pause mid-line
  no-newline     echo once without a trailing newline, then exit
  stall-mid-line on round 0 write half a reply, stall for a second, then
                 finish it; echo other rounds
  sub-pixel      repair like solve, then narrow every box to 0.005 x 0.005,
                 which covers no pixel center of most grids
"""

from __future__ import annotations

import json
import sys
import time


def reply_text(layout_text: str, prompt: str, reasoning: str = "") -> str:
    return json.dumps(
        {"updated_prompt": prompt, "layout": layout_text, "reasoning": reasoning}
    )


def respond(layout_text: str, prompt: str, reasoning: str = "") -> None:
    print(reply_text(layout_text, prompt, reasoning), flush=True)


def solve(prompt: str, layout_text: str) -> str:
    from scenefix import (
        convert_expression,
        parse_expression,
        parse_wire_layout,
        serialize_wire_layout,
        suggest_layout,
    )

    expr = parse_expression(prompt)
    layout = parse_wire_layout(layout_text)
    camera_expr = convert_expression(expr, layout)
    proposal = suggest_layout(camera_expr, layout)
    return serialize_wire_layout(proposal.layout)


def sub_pixel(layout_text: str) -> str:
    from scenefix import BBox, parse_wire_layout, serialize_wire_layout

    layout = parse_wire_layout(layout_text)
    return serialize_wire_layout(
        layout.with_objects(
            o.replace(bbox=BBox(o.bbox.x, o.bbox.y, 0.005, 0.005)) for o in layout.objects
        )
    )


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
    if mode == "close":
        return 0
    for line in sys.stdin:
        if not line.strip():
            continue
        record = json.loads(line)
        prompt, layout_text = record["prompt"], record["layout"]
        if mode == "echo":
            respond(layout_text, prompt, "echoed the input")
        elif mode == "solve":
            respond(solve(prompt, layout_text), prompt, "repaired with the builtin solver")
        elif mode == "sub-pixel":
            respond(sub_pixel(solve(prompt, layout_text)), prompt, "narrowed every box")
        elif mode == "malformed":
            print("this is not a JSON object", flush=True)
        elif mode == "missing-field":
            print(json.dumps({"layout": layout_text}), flush=True)
        elif mode == "bad-range":
            respond("[('cat #1', [0.1, 0.1, 0.2, 0.2], 1.5, None)]", prompt)
        elif mode == "invent":
            respond(
                "[('zeppelin #99', [0.1, 0.1, 0.2, 0.2], 0.5, None)]", prompt
            )
        elif mode == "sleep":
            time.sleep(30.0)
            respond(layout_text, prompt)
        elif mode == "stall-first":
            if record["round"] == 0:
                time.sleep(1.0)
            respond(layout_text, prompt, f"round {record['round']}")
        elif mode == "flood-first":
            reasoning = "x" * (3 << 20) if record["round"] == 0 else f"round {record['round']}"
            respond(layout_text, prompt, reasoning)
        elif mode == "deep":
            print("[" * 100_000, flush=True)
        elif mode == "long-int":
            print("1" * 5000, flush=True)
        elif mode == "not-utf8":
            sys.stdout.buffer.write(b"\xff\xfe not UTF-8\n")
            sys.stdout.buffer.flush()
        elif mode == "split":
            text = reply_text(layout_text, prompt, "echoed in two parts") + "\n"
            half = len(text) // 2
            sys.stdout.write(text[:half])
            sys.stdout.flush()
            time.sleep(0.05)
            sys.stdout.write(text[half:])
            sys.stdout.flush()
        elif mode == "stall-mid-line":
            text = reply_text(layout_text, prompt, f"round {record['round']}") + "\n"
            if record["round"] == 0:
                sys.stdout.write(text[: len(text) // 2])
                sys.stdout.flush()
                time.sleep(1.0)
                text = text[len(text) // 2:]
            sys.stdout.write(text)
            sys.stdout.flush()
        elif mode == "no-newline":
            sys.stdout.write(reply_text(layout_text, prompt, "echoed without a newline"))
            sys.stdout.flush()
            return 0
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
