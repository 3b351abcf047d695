#!/usr/bin/env bash
# check_kernels.sh — keeps internal/scan's "no bounds check, no data-dependent
# branch" claim true, instead of leaving it to a comment.
#
#  1. Builds ./internal/scan with the compiler's bounds-check report
#     (-d=ssa/check_bce/debug=1) and fails if a check is reported on a line
#     of a dense kernel (KERNELS below). Dispatchers may keep theirs: one
#     check per call, not per row. compressDense and the Refine* gathers are
#     not listed because their store and load indices are data. The
#     kernels are generic over the code width; the report covers every
#     instantiation the package compiles.
#  2. On amd64, disassembles countDense at both code widths (the int64 and
#     the uint32 instantiation; a missing one fails) and fails unless its
#     only conditional jumps are loop edges and every compare went to SETcc:
#     a range test that compiles to a jump per element costs 4-7x on
#     unordered data, and no benchmark over ordered or periodic data shows it.
#     These portable bodies are the fallback on a CPU without AVX2, the
#     vector bodies' tail loop and the oracle their tests compare against.
#  3. On amd64, fails if a vector body of count_amd64.s (VECTOR below) is
#     missing from the package object, or if the assembler's listing of it
#     holds a conditional jump besides the guard for an input shorter than
#     one block (forward) and the loop edge (backward). The listing is the
#     assembler's own (-asmflags=-S): go tool objdump does not decode VEX.
#
#   bash scripts/check_kernels.sh
set -euo pipefail
cd "$(dirname "$0")/.."

KERNELS="countDense matchWord minMaxDense minMaxNulls"
WIDTHS="int64 uint32"
VECTOR="countBlocks32 countBlocks64 minMaxBlocks32 minMaxBlocks64 countMinMaxBlocks32 countMinMaxBlocks64"
pkg=internal/scan
fail=0

for k in $KERNELS; do
  if ! grep -qs "^func $k\[C storage\.Code\](" $pkg/*.go; then
    echo "check_kernels: kernel $k not found in $pkg (renamed? update KERNELS)" >&2
    fail=1
  fi
done

# The compiler replays cached diagnostics, so this is cheap after the first run.
report="$(go build -gcflags=-d=ssa/check_bce/debug=1 ./$pkg 2>&1 | grep 'Found Is' | sort -u || true)"
while IFS=: read -r file line _; do
  [[ -z "$file" ]] && continue
  fn="$(awk -v n="$line" 'NR <= n && /^func / { f = $2; sub(/[[(].*/, "", f) } NR == n { print f; exit }' "$file")"
  for k in $KERNELS; do
    if [[ "$fn" == "$k" ]]; then
      echo "check_kernels: bounds check inside $k at $file:$line: $(sed -n "${line}p" "$file" | sed 's/^[[:space:]]*//')" >&2
      fail=1
    fi
  done
done <<<"$report"

if [[ "$(go env GOARCH)" == amd64 ]]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  go build -o "$tmp/scan.a" ./$pkg
  for w in $WIDTHS; do
    asm="$(go tool objdump -s "scan\\.countDense\\[go\\.shape\\.$w\\]\$" "$tmp/scan.a")"
    if ! grep -q '^TEXT' <<<"$asm"; then
      echo "check_kernels: no countDense[$w] in $pkg (instantiation gone? update WIDTHS)" >&2
      fail=1
      continue
    fi
    jumps="$(grep -cE '[[:space:]]J[A-Z]+[[:space:]]' <<<"$asm" | tr -d ' ')"
    cond="$(grep -E '[[:space:]]J[A-Z]+[[:space:]]' <<<"$asm" | grep -cvE '[[:space:]]JMP[[:space:]]' || true)"
    sets="$(grep -cE '[[:space:]]SET[A-Z]+[[:space:]]' <<<"$asm" || true)"
    # Two loops (four-element blocks, tail): two conditional loop edges, five
    # compares. One spare jump leaves room for a compiler that guards a loop.
    if (( cond > 3 || sets < 5 )); then
      echo "check_kernels: countDense[$w] has $cond conditional jumps ($jumps jumps) and $sets SETcc; want <= 3 and >= 5:" >&2
      grep -E '[[:space:]](J[A-Z]+|SET[A-Z]+)[[:space:]]' <<<"$asm" >&2
      fail=1
    else
      echo "check_kernels: countDense[$w]: $cond conditional jumps (loop edges), $sets SETcc"
    fi
  done

  listing="$(go build -asmflags=-S ./$pkg 2>&1)"
  for v in $VECTOR; do
    if ! go tool nm "$tmp/scan.a" | grep -qE "\(count_amd64\.o\):.* T .*/scan\.$v\$"; then
      echo "check_kernels: no vector body $v in $pkg's object (renamed? update VECTOR)" >&2
      fail=1
      continue
    fi
    # Conditional jumps of the symbol as "<own offset> <target offset>".
    jumps="$(awk -v sym="/scan.$v STEXT" '
      /^[^\t]/ { on = index($0, sym) > 0; next }
      on && $4 ~ /^J/ && $4 != "JMP" { print $2 + 0, $5 + 0 }' <<<"$listing")"
    back="$(awk '$2 < $1' <<<"$jumps" | grep -c . || true)"
    fwd="$(awk '$2 >= $1' <<<"$jumps" | grep -c . || true)"
    if (( back != 1 || fwd > 1 )); then
      echo "check_kernels: $v has $back backward and $fwd forward conditional jumps; want one loop edge and at most one guard:" >&2
      echo "$jumps" >&2
      fail=1
    else
      echo "check_kernels: $v: $back loop edge, $fwd guard, no other conditional jump"
    fi
  done
fi

if (( fail )); then
  echo "check_kernels: FAIL" >&2
  exit 1
fi
echo "check_kernels: ok — no bounds check in: $KERNELS (widths: $WIDTHS; vector bodies: $VECTOR)"
