set -eo pipefail
python3 qaddbench/selftest.py
