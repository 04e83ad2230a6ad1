set -eo pipefail
timeout 20 python - <<'EOF'
from qadd import WIRE_CAP, Circuit, cx, parse_netlist
c = parse_netlist("qadd 1\nqubits 4194304\nancilla\ncx 0 4194303\n")
assert c == Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)]), c
# one gate line on 2^22 wires: the parse builds no table of every
# wire's name, which is built only for a body of a line per wire
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
assert peak_kb < 64 * 1024, f"{peak_kb / 1024:.1f} MB peak RSS"
EOF
