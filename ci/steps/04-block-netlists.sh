set -eo pipefail
emit() { python -c "import sys, qadd; sys.stdout.write(qadd.export_netlist(qadd.$1))"; }
emit 'synth_init(3)' | cmp - tests/data/init_w3.qn
emit 'synth_sum(3)' | cmp - tests/data/sum_w3.qn
emit 'synth_sum(3, with_carry_in=False)' | cmp - tests/data/sum_w3_nocarry.qn
emit 'synth_carry(8, 1)' | cmp - tests/data/carry_n8_l1.qn
