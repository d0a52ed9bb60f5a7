#!/bin/sh
# End-to-end demo: synthetic corpus -> frequency analysis -> codebook ->
# encode/verify/stats -> BPE training -> tokenizer and hybrid codebooks ->
# language-id training -> identity pipeline.
# Usage: scripts/run_demo.sh [workdir]   (default workdir: demo-run/)
set -eu

WORK="${1:-demo-run}"
HERE="$(cd "$(dirname "$0")/.." && pwd)"
PY="${PYTHON:-python3}"
TK="$PY -m translitkit"

mkdir -p "$WORK"
$PY "$HERE/scripts/make_demo_corpus.py" --out "$WORK" --lines 2000 --per-label 600 --seed 7

$TK analyze "$WORK/corpus.txt" --ranges "$HERE/configs/ranges-default.cfg" -o "$WORK/freq.tsv"
$TK build-codebook --freq "$WORK/freq.tsv" --strategy basic \
    --scripts Tibetan,Mongolian,Uyghur --profile "$HERE/configs/profile-default.cfg" \
    -o "$WORK/codebook.tsv"

$TK encode --codebook "$WORK/codebook.tsv" < "$WORK/corpus.txt" > "$WORK/encoded.txt"
$TK decode --codebook "$WORK/codebook.tsv" < "$WORK/encoded.txt" > "$WORK/restored.txt"
cmp "$WORK/corpus.txt" "$WORK/restored.txt" && echo "encode|decode: byte-identical"
sed 's/$/\r/' "$WORK/corpus.txt" > "$WORK/corpus-crlf.txt"
$TK encode --codebook "$WORK/codebook.tsv" < "$WORK/corpus-crlf.txt" \
    | $TK decode --codebook "$WORK/codebook.tsv" | cmp "$WORK/corpus-crlf.txt" - \
    && echo "encode|decode (CRLF): byte-identical"

$TK verify "$WORK/corpus.txt" --codebook "$WORK/codebook.tsv"

# A corrupted line (an unknown code) in lenient mode: passed through, with a
# warning that names its input line.
{ head -n 2 "$WORK/encoded.txt"; echo "Zz"; } \
    | $TK decode --codebook "$WORK/codebook.tsv" --mode lenient > /dev/null

$TK bpe-train "$WORK/encoded.txt" --vocab-size 600 -o "$WORK/bpe"
$TK bpe-merge "$WORK/bpe" "$WORK/bpe" -o "$WORK/bpe-merged"
# The other two strategies: codes the BPE model keeps whole, over the full
# length-4 code space, and the same mapping paired with the merged vocabulary.
$TK build-codebook --freq "$WORK/freq.tsv" --strategy tokenizer --bpe "$WORK/bpe" \
    --scripts Tibetan,Mongolian,Uyghur --profile "$HERE/configs/profile-full.cfg" \
    -o "$WORK/codebook-tokenizer.tsv"
$TK build-codebook --freq "$WORK/freq.tsv" --strategy hybrid --bpe "$WORK/bpe-merged" \
    --scripts Tibetan,Mongolian,Uyghur --profile "$HERE/configs/profile-default.cfg" \
    -o "$WORK/codebook-hybrid.tsv"
$TK verify "$WORK/corpus.txt" --codebook "$WORK/codebook-tokenizer.tsv"
$TK stats "$WORK/corpus.txt" "$WORK/encoded.txt" --bpe "$WORK/bpe" \
    --codebook "$WORK/codebook.tsv" --lang mixed
$TK stats "$WORK/corpus.txt" "$WORK/encoded.txt" --bpe "$WORK/bpe" \
    --codebook "$WORK/codebook.tsv" --lang mixed --human

$PY "$HERE/scripts/make_demo_corpus.py" --out "$WORK" --lines 2000 --per-label 600 --seed 7 \
    --codebook "$WORK/codebook.tsv"
cat > "$WORK/lid-input.cfg" <<'EOF'
preset = input
epochs = 4
min_count = 2
hash_buckets = 131072
EOF
cat > "$WORK/lid-output.cfg" <<'EOF'
preset = output
epochs = 4
min_count = 2
hash_buckets = 131072
EOF
$TK langid-train "$WORK/labeled_raw.txt" --params "$WORK/lid-input.cfg" -o "$WORK/input.lid"
$TK langid-train "$WORK/labeled_enc.txt" --params "$WORK/lid-output.cfg" -o "$WORK/output.lid"

printf 'ཀཁགངཅཇཉཏཐད\nhello world\n' | $TK detect --model "$WORK/input.lid"

sed "s#^codebook = .*#codebook = codebook.tsv#" "$HERE/configs/pipeline-demo.cfg" > "$WORK/pipeline.cfg"
head -n 200 "$WORK/corpus.txt" > "$WORK/sample.txt"
$TK pipeline --config "$WORK/pipeline.cfg" < "$WORK/sample.txt" > "$WORK/pipeline-out.txt"
cmp "$WORK/sample.txt" "$WORK/pipeline-out.txt" && echo "pipeline identity: byte-identical"

echo "demo complete; artifacts in $WORK"
