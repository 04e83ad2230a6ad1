set -eo pipefail
timeout 180 python - <<'EOF'
from qadd import synth_ripple, verify_random
from qadd.oracles import adder_oracle
# qadd verify checks 7 free wires exhaustively, so this cap shape is
# reached only through verify_random: 7 wires x 153391689 trials.
c = synth_ripple(3)
trials = (2**30) // 7
r = verify_random(c, packed_oracle=adder_oracle(c)[1], trials=trials, seed=5)
assert (r.total_cases, r.failures, r.ancilla_violations) == (trials, (), ()), r
# 18.3 MB columns: generating them alone peaked at 189.5 MB, and the
# run at 406 MB (VmHWM, CPython 3.11, glibc); 25 % headroom, as above
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
assert peak_kb < 510 * 1024, f"{peak_kb / 1024:.1f} MB peak RSS"
EOF
