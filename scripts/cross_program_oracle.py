#!/usr/bin/env python3
"""Cross-program oracle: the same scan flags run the same scan in
flashroute_cli and as an frd job (DESIGN.md §12, svc/scan_spec.h).

For each flag line below, flashroute_cli --archive writes the scan's FRSC
payload in one FRSA frame (magic, u32 LE size, payload, CRC).  Then one
2-worker frd runs all the lines at once, submitted by frctl with the same
flags, so the jobs preempt one another at their checkpoint barriers.
`frctl verify` prints each job's archived payload size and FNV-1a; both
must equal the CLI payload's, and at least one job must have been
preempted.

Usage: cross_program_oracle.py BIN_DIR   (the directory holding
flashroute_cli, frd and frctl).  Exits 0 when every line matches.
"""

from __future__ import annotations

import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile

# 2^9 to 2^10 /24s each: hitlist preprobing; random preprobing folded into
# round one (split TTL 32); loss and duplicates under retransmits and
# backoff; extra scans with a narrow proximity span; Yarrp-style probing.
FLAG_LINES = [
    ["--prefix-bits=10", "--preprobe=hitlist", "--topology-seed=3"],
    ["--prefix-bits=10", "--preprobe=random", "--split-ttl=32",
     "--scan-seed=11"],
    ["--prefix-bits=9", "--fault-probe-loss=0.1",
     "--fault-response-loss=0.1", "--fault-duplicate=0.05",
     "--retransmit=2", "--backoff", "--topology-seed=5"],
    ["--prefix-bits=9", "--preprobe=random", "--extra-scans=2",
     "--proximity-span=3", "--target-seed=9"],
    ["--prefix-bits=9", "--preprobe=none", "--split-ttl=32", "--no-forward",
     "--no-redundancy-removal"],
]

TIMEOUT_S = 60


def fnv1a(data: bytes) -> int:
    digest = 0xCBF29CE484222325
    for byte in data:
        digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest


def cli_payload(path: str) -> tuple[int, int]:
    """Size and FNV-1a of the FRSC payload in an FRSA archive file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"FRSA":
        raise SystemExit(f"{path}: not an FRSA archive file")
    (size,) = struct.unpack("<I", data[4:8])
    return size, fnv1a(data[8:8 + size])


def run(cmd: list[str]) -> str:
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    return done.stdout


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bin_dir = sys.argv[1]
    cli, frd, frctl = (os.path.join(bin_dir, name)
                       for name in ("flashroute_cli", "frd", "frctl"))
    tmp = tempfile.mkdtemp(prefix="fr_oracle_")
    daemon = None
    try:
        expected = []
        for i, flags in enumerate(FLAG_LINES):
            archive = os.path.join(tmp, f"cli{i}.frsa")
            run([cli, *flags, f"--archive={archive}"])
            expected.append(cli_payload(archive))

        sock = os.path.join(tmp, "frd.sock")
        events = os.path.join(tmp, "events.jsonl")
        daemon = subprocess.Popen(
            [frd, f"--socket={sock}", f"--archive={tmp}/frd.bin",
             f"--journal={tmp}/frd.journal", f"--state-dir={tmp}/state",
             f"--events={events}", "--workers=2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        ctl = [frctl, f"--socket={sock}", "--retries=40",
               "--retry-backoff-ms=50"]
        run([*ctl, "list"])  # returns once the daemon answers
        # All submits at once, so the five jobs queue behind two workers.
        submits = [subprocess.Popen([*ctl, "submit", f"--name=line{i}",
                                     *flags], stdout=subprocess.PIPE,
                                    text=True)
                   for i, flags in enumerate(FLAG_LINES)]
        ids = []
        for submit in submits:
            reply, _ = submit.communicate(timeout=TIMEOUT_S)
            ids.append(re.search(r"id=(\d+) admitted=1", reply).group(1))
        run([*ctl, "wait-all"])
        actual = []
        for job in ids:
            reply = run([*ctl, "verify", job])
            match = re.search(r"size=(\d+) fnv1a=0x([0-9a-f]+)", reply)
            actual.append((int(match.group(1)), int(match.group(2), 16)))
        run([*ctl, "shutdown"])
        daemon.wait(timeout=TIMEOUT_S)
        daemon = None
        with open(events) as f:
            preempted = f.read().count('"event":"preempted"')

        failures = 0
        for i, (want, got) in enumerate(zip(expected, actual)):
            same = want == got
            failures += not same
            print(f"line {i} {' '.join(FLAG_LINES[i])}: cli size={want[0]} "
                  f"fnv1a=0x{want[1]:016x}, frd size={got[0]} "
                  f"fnv1a=0x{got[1]:016x} {'ok' if same else 'MISMATCH'}")
        print(f"{preempted} preemptions across the frd jobs")
        if preempted == 0:
            print("no frd job was preempted: the jobs did not interleave")
            failures += 1
        return 1 if failures else 0
    finally:
        if daemon is not None:
            daemon.kill()
            daemon.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
