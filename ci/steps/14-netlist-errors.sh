set -eo pipefail
timeout 20 python - "$RUNNER_TEMP/bad.qn" <<'EOF'
import subprocess, sys
# a line out of place, in the header or after the gates ("|" is a line break)
cases = {
    "qadd 1|qubits 3|qubits 4": "line 3, col 1: duplicate qubits line",
    "qadd 1|qubits 3|cx 0 1|qubits 3": "line 4, col 1: duplicate qubits line",
    "qadd 1|qubits 3|ancilla 0|ancilla 1": "line 4, col 1: duplicate ancilla line",
    "qadd 1|qubits 3|ancilla 0|cx 0 1|ancilla 2": "line 5, col 1: duplicate ancilla line",
    "qadd 1|qubits 3|cx 0 1|ancilla 2": "line 4, col 1: ancilla line after gates",
    "qadd 1|qubits 3|cx 0 1|# role 0 B0": "line 4, col 1: role line after gates",
    "qadd 1|qubits 3|bogus 1": "line 3, col 1: unknown opcode 'bogus'",
    "qadd 1|qubits 3|cx 0 1|cx 0 1|bogus 1": "line 5, col 1: unknown opcode 'bogus'",
    "qadd 1|qubits 3|#word|cx 0 1": "line 3, col 1: unknown opcode '#word'",
    "qadd 1|qubits 3|cx 0 1|#word": "line 4, col 1: unknown opcode '#word'",
}
path = sys.argv[1]
for text, reason in cases.items():
    with open(path, "w") as f:
        f.write(text.replace("|", "\n") + "\n")
    run = subprocess.run(["qadd", "stats", path], capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (2, f"error: {reason}\n"), (text, run)
EOF
