set -eo pipefail
timeout 20 python - <<'EOF'
from qadd import WIRE_CAP, Circuit, cx, export_netlist
text = export_netlist(Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)]))
assert text == "qadd 1\nqubits 4194304\nancilla\ncx 0 4194303\n", repr(text)
# one gate on 2^22 wires: the export names only the ids it writes,
# where a name for every wire took 304 MB
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
assert peak_kb < 64 * 1024, f"{peak_kb / 1024:.1f} MB peak RSS"
EOF
