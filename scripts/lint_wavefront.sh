#!/usr/bin/env bash
# Wavefront-64 portability lint (docs/sanitizer.md).
#
# The paper's whole point is that CUDA warp-32 idioms silently break on
# AMD's 64-lane wavefronts: 32-bit ballot masks drop half the lanes,
# 0xffffffff "full masks" are half-full, __popc on a 64-bit ballot
# truncates, and hard-coded >>5 / &31 lane arithmetic shears every index.
# This lint keeps those idioms out of the device-facing sources:
#
#   1. CUDA masked-sync intrinsics (__ballot_sync, __any_sync, __all_sync,
#      __activemask, __shfl_*_sync) — hipsim exposes the AMD unmasked forms.
#   2. __popc( on ballot results — must be __popcll/popcount on 64 bits.
#   3. 0xffffffff used as a full-wavefront mask (flagged only on lines that
#      also mention mask/ballot/lane/wavefront/warp/vote/shfl context, so
#      sentinels like kUnvisited = 0xFFFFFFFFu stay legal).
#   4. Warp-32 lane arithmetic (>>5, &31, %32, /32, ==32) in lane/warp/mask
#      context.
#
# A deliberate exception (e.g. modelling the CUDA comparison point) is
# annotated in-line with `// wf64-ok: <reason>`, which skips that line.
#
#   usage: lint_wavefront.sh [repo-root]
set -euo pipefail

ROOT=${1:-$(cd "$(dirname "$0")/.." && pwd)}
DIRS=(src/hipsim src/core src/baseline src/algos src/serve src/dyn src/shard)

fail=0
report() {  # file:line:text, tagged with the rule that fired
  printf 'lint_wavefront: [%s] %s\n' "$1" "$2"
  fail=1
}

for d in "${DIRS[@]}"; do
  [[ -d "$ROOT/$d" ]] || continue
  while IFS= read -r f; do
    lineno=0
    while IFS= read -r line; do
      lineno=$((lineno + 1))
      # Strip trailing comments AFTER honoring the allowlist marker; skip
      # pure comment/doc lines so prose may name the CUDA intrinsics.
      [[ "$line" =~ wf64-ok ]] && continue
      [[ "$line" =~ ^[[:space:]]*(//|\*|/\*) ]] && continue
      code=${line%%//*}
      loc="$f:$lineno"

      if [[ "$code" =~ __(ballot|any|all|shfl[a-z_]*)_sync|__activemask ]]; then
        report "cuda-masked-sync" "$loc: $code"
      fi
      if [[ "$code" =~ __popc\( ]]; then
        report "popc32-on-ballot" "$loc: $code"
      fi
      lower=${code,,}  # in-process: no fork per source line
      if [[ "$lower" =~ 0xffffffff([^f]|$) ]] &&
         [[ "$lower" =~ mask|ballot|lane|wavefront|warp|vote|shfl ]]; then
        report "warp32-full-mask" "$loc: $code"
      fi
      if [[ "$lower" =~ mask|ballot|lane|warp ]] &&
         [[ "$code" =~ \>\>[[:space:]]*5([^0-9]|$)|\&[[:space:]]*31([^0-9]|$)|%[[:space:]]*32([^0-9]|$)|/[[:space:]]*32([^0-9]|$)|==[[:space:]]*32([^0-9]|$) ]]; then
        report "warp32-lane-arith" "$loc: $code"
      fi
    done < "$f"
  done < <(find "$ROOT/$d" -name '*.h' -o -name '*.cpp' | sort)
done

if [[ $fail -ne 0 ]]; then
  echo "lint_wavefront: FAIL — warp-32 idioms found; fix them or annotate a"
  echo "deliberate exception with '// wf64-ok: <reason>' (docs/sanitizer.md)"
  exit 1
fi
echo "lint_wavefront: PASS"
