set -eo pipefail
timeout 20 python - <<'EOF'
import qadd, qadd.sim
from qadd.oracles import adder_oracle
def refuse(*args, **kwargs):
    raise SystemExit("inputs were built for a bad request")
qadd.sim._random_columns = qadd.sim._enumeration_columns = refuse
c = qadd.synth_ripple(3)
_, packed = adder_oracle(c)
for verify in (qadd.verify_random, qadd.verify_exhaustive):
    for oracles in ({}, {"oracle": lambda s: s, "packed_oracle": packed}):
        try:
            verify(c, **oracles)
        except ValueError as err:
            assert "exactly one" in str(err), (verify, err)
        else:
            raise SystemExit(f"{verify.__name__} ran without exactly one oracle")
EOF
set +e
qadd verify --kind ripple --n 3 --trials 0
code=$?
set -e
test "$code" -eq 2
