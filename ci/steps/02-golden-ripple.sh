set -eo pipefail
qadd synth --kind ripple --n 3 | cmp - tests/data/ripple_n3.qn
