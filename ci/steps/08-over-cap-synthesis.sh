set -eo pipefail
timeout 20 python - <<'EOF'
import qadd, qadd.fanout
def refuse(*args):
    raise SystemExit("a fan-out gate was built for an over-cap request")
qadd.fanout._fo = qadd.fanout._cx = refuse
calls = [
    "synth_ripple(2**21)",
    "synth_init(2**21)",
    "synth_sum(2**21)",
    "synth_carry(2**21, 1)",
    "synth_combined(BlockParams(2**21, 2))",
    "synth_ripple(10**18)",
    "synth_fanout_tree(0, range(1, WIRE_CAP + 1), 2)",
    "synth_fanout_tree(0, range(1, 2**63 + 1), 2)",
    "synth_combined(BlockParams(2**(10**6), 2))",
    "synth_carry(2**(10**6), 1)",
]
for call in calls:
    try:
        eval(call, vars(qadd))
    except ValueError as err:
        assert f"cap {qadd.WIRE_CAP}" in str(err), (call, err)
    else:
        raise SystemExit(f"{call} was not refused")
EOF
