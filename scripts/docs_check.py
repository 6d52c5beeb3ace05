#!/usr/bin/env python3
"""Docs-consistency gate: docs/SCHEMAS.md vs real rendered documents, and
README's metric series table vs the series the code records.

Parses the schema names and per-field tables out of docs/SCHEMAS.md, then
generates one real document of every schema by driving the release
binaries (a single solve, a sweep with a stream file, a saved policy
file, and a live `rlp_serve --policy` daemon spoken to over a socket),
and fails if the documented top-level keys drift from the rendered ones
in either direction; an outcome's `manifest` and `timing` members and a
campaign's `timing` members are checked the same way against the
`{ ... }` members their table rows document. It also fails if an `obs_counter!`/`obs_gauge!`/
`obs_histogram!` call under crates/*/src takes anything but a string
literal, or if the names in those calls and README's "Observability"
series table differ in either direction.

Usage: python3 scripts/docs_check.py [--bin-dir target/release]

Stdlib only; assumes the release binaries are already built.
"""

import argparse
import json
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMAS_MD = os.path.join(REPO, "docs", "SCHEMAS.md")
README_MD = os.path.join(REPO, "README.md")
POLICY_MAGIC = b"RLPPOL\x01\n"

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def ok(msg):
    print(f"  ok: {msg}")


# ---------------------------------------------------------------------------
# Parsing docs/SCHEMAS.md
# ---------------------------------------------------------------------------

FIELD_TABLE_HEADER = "| Field | Stability | Contents |"


def parse_schemas_md(text):
    """Returns (master_names, sections) where sections maps schema name to
    {"fields": [...top-level keys...], "body": section text}."""
    master_names = []
    in_master = False
    for line in text.splitlines():
        if line.startswith("| Schema | Emitted by |"):
            in_master = True
            continue
        if in_master:
            m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
            if m:
                master_names.append(m.group(1))
            elif not line.startswith("|---"):
                in_master = False

    sections = {}
    current = None
    for line in text.splitlines():
        m = re.match(r"##\s+`([^`]+)`", line)
        if m:
            current = m.group(1)
            sections[current] = {"fields": [], "body": ""}
            continue
        if current is None:
            continue
        sections[current]["body"] += line + "\n"

    for name, sec in sections.items():
        in_fields = False
        for line in sec["body"].splitlines():
            if line.startswith(FIELD_TABLE_HEADER):
                in_fields = True
                continue
            if in_fields:
                m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
                if m:
                    sec["fields"].append(m.group(1))
                elif not line.startswith("|---"):
                    in_fields = False
    return master_names, sections


def parse_reply_shapes(cell):
    """Parses `accepted { job }` / `stats { cache: { … }, scheduler: { … } }`
    reply shapes out of a table cell: returns reply name -> top-level
    fields only (nested braces are skipped)."""
    shapes = {}
    for m in re.finditer(r"([a-z_]+) \{", cell):
        name = m.group(1)
        depth, pos, token = 1, m.end(), ""
        fields = []
        while pos < len(cell) and depth > 0:
            ch = cell[pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                if depth == 1 and token:
                    fields.append(token)
                    token = ""
                depth -= 1
            elif depth == 1:
                if ch in ",:":
                    if token:
                        fields.append(token)
                    token = ""
                elif ch.isalnum() or ch in "_?":
                    token += ch
            pos += 1
        shapes[name] = [
            (f.rstrip("?"), f.endswith("?")) for f in fields if f
        ]
    return shapes


def parse_rpc_section(body):
    """Returns (frame_types, server_fields) from the rpc/v1 section.

    frame_types: every `type` a frame on the wire may carry (client
    requests, replies, and pushed job-lifecycle frames).
    server_fields: type -> [(field, optional)] for server->client frames.
    """
    frame_types = set()
    server_fields = {}
    table = None  # None | "client" | "server"
    for line in body.splitlines():
        if line.startswith("| `type` | Fields | Reply |"):
            table = "client"
            continue
        if line.startswith("| `type` | Fields |"):
            table = "server"
            continue
        if table and line.startswith("|---"):
            continue
        if table and line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            m = re.match(r"`([a-z_]+)`", cells[0])
            if not m:
                table = None
                continue
            frame_type = m.group(1)
            frame_types.add(frame_type)
            if table == "server":
                # Field list ends at the em-dash; after it is prose.
                field_part = cells[1].split("—")[0]
                server_fields[frame_type] = [
                    (fm.group(1), fm.group(2) == "?")
                    for fm in re.finditer(r"`([a-zA-Z_]+)(\??)`", field_part)
                ]
            else:
                for reply, fields in parse_reply_shapes(cells[2]).items():
                    frame_types.add(reply)
                    server_fields.setdefault(reply, []).extend(fields)
        elif table and not line.strip():
            table = None
    return frame_types, server_fields


# ---------------------------------------------------------------------------
# Generating real documents
# ---------------------------------------------------------------------------


def run(cmd, ok_codes=(0,), **kwargs):
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=300, **kwargs
    )
    if proc.returncode not in ok_codes:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc.stdout


def frame_send(sock, doc):
    payload = json.dumps(doc).encode()
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def frame_recv(sock):
    buf = b""
    while len(buf) < 4:
        chunk = sock.recv(4 - len(buf))
        assert chunk, "daemon closed mid-frame"
        buf += chunk
    (length,) = struct.unpack(">I", buf)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        assert chunk, "daemon closed mid-frame"
        payload += chunk
    return json.loads(payload)


def drive_daemon(serve_bin, policy_path, request_doc):
    """Boots rlp_serve with a preloaded policy, runs one solve with
    progress streaming plus status/stats/metrics/shutdown, and returns
    every server frame observed."""
    log_path = tempfile.mktemp(prefix="docs-check-serve-", suffix=".log")
    with open(log_path, "w") as log:
        daemon = subprocess.Popen(
            [
                serve_bin,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--capacity",
                "4",
                "--policy",
                policy_path,
            ],
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    addr = None
    try:
        for _ in range(200):
            with open(log_path) as log:
                m = re.search(
                    r"rlp-serve listening on (\S+)", log.read()
                )
            if m:
                addr = m.group(1)
                break
            if daemon.poll() is not None:
                raise RuntimeError(
                    f"rlp_serve exited {daemon.returncode} before listening"
                )
            time.sleep(0.05)
        if addr is None:
            raise RuntimeError("rlp_serve never reported its address")

        host, port = addr.rsplit(":", 1)
        frames = []
        with socket.create_connection((host, int(port)), timeout=60) as sock:
            sock.settimeout(120)
            frame_send(
                sock,
                {
                    "schema": "rlplanner.rpc/v1",
                    "type": "solve",
                    "request": request_doc,
                    "progress_every": 5,
                },
            )
            accepted = frame_recv(sock)
            frames.append(accepted)
            job = accepted.get("job")
            while True:
                frame = frame_recv(sock)
                frames.append(frame)
                if frame.get("type") in ("outcome", "failed"):
                    break
            frame_send(
                sock,
                {"schema": "rlplanner.rpc/v1", "type": "status", "job": job},
            )
            frames.append(frame_recv(sock))
            for req_type in ("stats", "metrics", "shutdown"):
                frame_send(
                    sock, {"schema": "rlplanner.rpc/v1", "type": req_type}
                )
                frames.append(frame_recv(sock))
        daemon.wait(timeout=60)
        return frames
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        os.unlink(log_path)


def parse_policy_metadata(path):
    """Reads magic, version, dtype and the metadata keys of a
    rlplanner.policy/v1 file, mirroring the documented layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != POLICY_MAGIC:
        raise RuntimeError(f"bad policy magic: {blob[:8]!r}")
    version, dtype = struct.unpack_from("<II", blob, 8)
    (count,) = struct.unpack_from("<I", blob, 16)
    offset = 20
    keys = []
    for _ in range(count):
        (key_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        keys.append(blob[offset : offset + key_len].decode())
        offset += key_len
        (val_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4 + val_len
    return version, dtype, keys


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


SERIES_TABLE_HEADER = "| Series | Kind | Records |"
OBS_CALL = re.compile(r"obs_(?:counter|gauge|histogram)!\(\s*")
STRING_LITERAL = re.compile(r'"([^"\\]*)"\s*\)')


def recorded_series():
    """The metric names in `obs_*!` calls in the crates' code (comment
    lines are blanked). A call whose name is not a plain string literal is
    a failure: every name must be checkable here."""
    names = set()
    crates = os.path.join(REPO, "crates")
    for crate in sorted(os.listdir(crates)):
        src = os.path.join(crates, crate, "src")
        for dirpath, _, files in os.walk(src):
            for file in sorted(files):
                if not file.endswith(".rs"):
                    continue
                path = os.path.join(dirpath, file)
                with open(path) as fh:
                    code = "\n".join(
                        "" if line.lstrip().startswith("//") else line
                        for line in fh.read().splitlines()
                    )
                for call in OBS_CALL.finditer(code):
                    literal = STRING_LITERAL.match(code, call.end())
                    if literal:
                        names.add(literal.group(1))
                    else:
                        line = code.count("\n", 0, call.start()) + 1
                        rel = os.path.relpath(path, REPO)
                        fail(f"{rel}:{line}: metric name is not a string literal")
    return names


def documented_series(text):
    """The backticked names in the first column of README's series table."""
    names = set()
    in_table = False
    for line in text.splitlines():
        if line.startswith(SERIES_TABLE_HEADER):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
            if m:
                names.add(m.group(1))
    return names


def check_series():
    with open(README_MD) as fh:
        documented = documented_series(fh.read())
    recorded = recorded_series()
    if not documented:
        fail(f"README.md has no table headed {SERIES_TABLE_HEADER!r}")
        return
    undocumented = sorted(recorded - documented)
    unrecorded = sorted(documented - recorded)
    if undocumented:
        fail(f"series recorded but missing from README's table: {undocumented}")
    if unrecorded:
        fail(f"series in README's table that nothing records: {unrecorded}")
    if not undocumented and not unrecorded:
        ok(f"README lists all {len(recorded)} recorded metric series")


def check_keys(name, documented, actual_docs):
    """Top-level keys must match in both directions. actual_docs is a
    list of rendered documents; the union of their keys is compared so
    conditional fields (campaign-run ok/error) are covered by providing
    one document of each shape."""
    actual = set()
    for doc in actual_docs:
        actual |= set(doc.keys())
    documented = set(documented)
    missing = sorted(documented - actual)
    undocumented = sorted(actual - documented)
    if missing:
        fail(f"{name}: documented keys never rendered: {missing}")
    if undocumented:
        fail(f"{name}: rendered keys missing from docs/SCHEMAS.md: {undocumented}")
    if not missing and not undocumented:
        ok(f"{name}: {len(documented)} top-level keys match")


def documented_members(body, field):
    """The members a field table row documents as `{ a, b, ... }`, for the
    row of `field` in a schema section's body."""
    for line in body.splitlines():
        if line.startswith(f"| `{field}` |"):
            m = re.search(r"`\{ ([a-z_, ]+) \}`", line)
            if m:
                return [name.strip() for name in m.group(1).split(",")]
    return []


def check_schema_field(name, doc):
    if doc.get("schema") != name:
        fail(f"{name}: rendered document says schema={doc.get('schema')!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin-dir", default=os.path.join(REPO, "target", "release"))
    args = parser.parse_args()

    cli = os.path.join(args.bin_dir, "rlplanner_cli")
    rlp_load = os.path.join(args.bin_dir, "rlp_load")
    rlp_serve = os.path.join(args.bin_dir, "rlp_serve")
    for binary in (cli, rlp_load, rlp_serve):
        if not os.path.exists(binary):
            print(f"missing binary {binary}; build with cargo build --release")
            return 2

    with open(SCHEMAS_MD) as fh:
        text = fh.read()
    master_names, sections = parse_schemas_md(text)

    print("== docs/SCHEMAS.md structure ==")
    section_names = {n.split(" ")[0] for n in sections}
    if set(master_names) != section_names:
        fail(
            "master table and section headers disagree: "
            f"{sorted(set(master_names) ^ section_names)}"
        )
    else:
        ok(f"master table lists all {len(master_names)} documented schemas")

    print("== README metric series ==")
    check_series()

    with tempfile.TemporaryDirectory(prefix="docs-check-") as tmp:
        print("== generating real documents ==")
        outcome = json.loads(run([cli, "case1", "sa-fast", "20", "--json"]))
        request = json.loads(
            run([rlp_load, "print-request", "case1", "sa-fast", "20"])
        )

        policy_path = os.path.join(tmp, "smoke.policy")
        rl_outcome = json.loads(
            run([cli, "case1", "rl", "2", "--save-policy", policy_path, "--json"])
        )

        # A sweep whose pretrained column names a missing policy file:
        # fail-soft gives one `ok` and one `error` stream record plus a
        # populated `failures` array (exit code 1 is the documented
        # some-runs-failed signal).
        stream_path = os.path.join(tmp, "stream.jsonl")
        campaign = json.loads(
            run(
                [
                    cli, "sweep",
                    "--systems", "case1",
                    "--methods", "sa-fast,pretrained",
                    "--policy", os.path.join(tmp, "missing.policy"),
                    "--seeds", "1",
                    "--budget", "20",
                    "--stream", stream_path,
                    "--json",
                ],
                ok_codes=(0, 1),
            )
        )
        with open(stream_path) as fh:
            stream_records = [json.loads(line) for line in fh if line.strip()]

        with open(os.path.join(REPO, "BENCH_baseline.json")) as fh:
            bench = json.load(fh)

        frames = drive_daemon(rlp_serve, policy_path, request)
        ok(f"daemon exchange observed {len(frames)} frames")

        print("== schema name + key drift ==")
        check_schema_field("rlplanner.outcome/v1", outcome)
        check_schema_field("rlplanner.request/v1", request)
        check_schema_field("rlplanner.campaign/v1", campaign)
        check_schema_field("rlplanner.bench/v1", bench)
        for record in stream_records:
            check_schema_field("rlplanner.campaign-run/v1", record)

        check_keys(
            "rlplanner.outcome/v1",
            sections["rlplanner.outcome/v1"]["fields"],
            [outcome, rl_outcome],
        )
        for schema, field, docs in (
            ("rlplanner.outcome/v1", "manifest", [outcome, rl_outcome]),
            ("rlplanner.outcome/v1", "timing", [outcome, rl_outcome]),
            ("rlplanner.campaign/v1", "timing", [campaign]),
        ):
            members = documented_members(sections[schema]["body"], field)
            if not members:
                fail(f"{schema}: the `{field}` row documents no `{{ ... }}` members")
            check_keys(f"{schema} {field}", members, [doc[field] for doc in docs])
        check_keys(
            "rlplanner.request/v1",
            sections["rlplanner.request/v1"]["fields"],
            [request],
        )
        check_keys(
            "rlplanner.campaign/v1",
            sections["rlplanner.campaign/v1"]["fields"],
            [campaign],
        )
        statuses = {r["status"] for r in stream_records}
        if statuses != {"ok", "error"}:
            fail(f"campaign-run smoke expected ok+error records, got {statuses}")
        check_keys(
            "rlplanner.campaign-run/v1",
            sections["rlplanner.campaign-run/v1"]["fields"],
            stream_records,
        )
        check_keys(
            "rlplanner.bench/v1",
            sections["rlplanner.bench/v1"]["fields"],
            [bench],
        )

        print("== rpc/v1 frames ==")
        frame_types, server_fields = parse_rpc_section(
            sections["rlplanner.rpc/v1"]["body"]
        )
        for frame in frames:
            check_schema_field("rlplanner.rpc/v1", frame)
            ftype = frame.get("type")
            if ftype not in frame_types:
                fail(f"rpc frame type {ftype!r} is not documented")
                continue
            for field, optional in server_fields.get(ftype, []):
                if not optional and field not in frame:
                    fail(f"rpc {ftype} frame lacks documented field {field!r}")
        observed = sorted({f.get("type") for f in frames})
        ok(f"observed frame types all documented: {observed}")

        outcome_frames = [f for f in frames if f.get("type") == "outcome"]
        if not outcome_frames:
            fail("daemon smoke produced no outcome frame")
        else:
            check_keys(
                "rlplanner.outcome/v1 (embedded in rpc outcome frame)",
                sections["rlplanner.outcome/v1"]["fields"],
                [outcome_frames[0]["outcome"]],
            )
        metrics_frames = [f for f in frames if f.get("type") == "metrics"]
        if not metrics_frames:
            fail("daemon smoke produced no metrics frame")
        else:
            snapshot = metrics_frames[0]["metrics"]
            check_schema_field("rlplanner.metrics/v1", snapshot)
            check_keys(
                "rlplanner.metrics/v1",
                sections["rlplanner.metrics/v1"]["fields"],
                [snapshot],
            )
            for counter in ("plan.solves", "serve.jobs.completed"):
                if counter not in snapshot["counters"]:
                    fail(f"metrics counter {counter!r} missing from snapshot")

        print("== policy/v1 binary ==")
        version, dtype, metadata_keys = parse_policy_metadata(policy_path)
        if version != 1:
            fail(f"policy format version {version}, docs say 1")
        if dtype != 0:
            fail(f"policy dtype {dtype}, docs say 0 (f32)")
        documented_meta = re.findall(
            r"`((?:schema|env\.|agent\.)[a-z_.]*)`",
            sections["rlplanner.policy/v1"]["body"],
        )
        missing_meta = sorted(set(documented_meta) - set(metadata_keys))
        if missing_meta:
            fail(f"documented policy metadata keys absent from file: {missing_meta}")
        else:
            ok(
                f"policy file: magic/version/dtype ok, "
                f"{len(metadata_keys)} metadata keys cover the documented set"
            )

    if FAILURES:
        print(f"\ndocs check FAILED with {len(FAILURES)} problem(s)")
        return 1
    print("\ndocs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
