set -eo pipefail
qadd stats --kind ripple --n 1024
set +e
qadd estimate --target shor-dlog --n 12 --adder combined --d 2
code=$?
set -e
test "$code" -eq 2
python -c '
from qadd.estimator import combined_adder_bounds
try:
    combined_adder_bounds(2**1100, 2)
except ValueError:
    pass
else:
    raise SystemExit("combined_adder_bounds(2**1100, 2) was not refused")
'
