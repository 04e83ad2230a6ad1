set -eo pipefail
timeout 20 python - <<'EOF'
from qadd import WIRE_CAP, Circuit, ccx, cx, parse_netlist, x
c = parse_netlist("qadd 1\nqubits 4194304\nancilla\ncx 0 4194303\n")
assert c == Circuit(WIRE_CAP, gates=[cx(0, WIRE_CAP - 1)]), c
# a sparse body with a repeated line and a zero-padded id: the wire-name
# table names at most one wire per distinct line up front and every other
# id on first use, so it stays as small as the body on 2^22 wires
c = parse_netlist(
    "qadd 1\nqubits 4194304\nancilla 7\n"
    "ccx 0 4194303 2097152\nx 0004194303\nccx 0 4194303 2097152\ncx 7 0\n"
)
top, mid = WIRE_CAP - 1, WIRE_CAP // 2
assert c == Circuit(WIRE_CAP, {7}, gates=[ccx(0, top, mid), x(top), ccx(0, top, mid), cx(7, 0)]), c
assert c.gates[0] is c.gates[2]
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
assert peak_kb < 64 * 1024, f"{peak_kb / 1024:.1f} MB peak RSS"
EOF
