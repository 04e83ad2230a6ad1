set -eo pipefail
qadd synth --kind fanout-tree --t 7 --f 2 | cmp - tests/data/fanout_t7_f2.qn
