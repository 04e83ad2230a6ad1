set -eo pipefail
qadd synth --kind combined --n 8 --d 2 | cmp - tests/data/combined_n8_d2.qn
