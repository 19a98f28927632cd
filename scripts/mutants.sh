#!/usr/bin/env bash
# Run the mutant ledger (tests/mutants.txt): apply each row's source mutant
# to a clean checkout of HEAD and run only the test the row names, which
# must fail. Prints one line per row: `killed`, `SURVIVED` (the test passed
# on the mutant), `unviable` (the mutant does not build) or `snippet not
# found` (a `find` snippet does not occur exactly once). Any result but
# `killed` fails the run, and so does a named test that fails before any
# mutant is applied.
#
#   scripts/mutants.sh                 every row of tests/mutants.txt
#   scripts/mutants.sh LEDGER          the rows of another ledger file
#
# The checkout is a `git worktree` under a temporary directory, removed on
# exit; uncommitted changes are not in it. Builds go to CARGO_TARGET_DIR if
# set, else to a target directory beside the checkout, so the first row
# pays a full test-profile build and later rows rebuild only what their
# mutant touches.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
ledger=$(realpath "${1:-$root/tests/mutants.txt}")
tmp=$(mktemp -d)
tree="$tmp/tree"
git -C "$root" worktree add -q --detach "$tree" HEAD
cleanup() {
    git -C "$root" worktree remove --force "$tree" || true
    rm -rf "$tmp"
}
trap cleanup EXIT
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tmp/target}"

# Apply FIND[i] -> REPLACE[i] to FILE, each snippet exactly once (`\n` in a
# snippet is a newline). Exit 3 if a snippet does not occur exactly once.
apply() {
    python3 - "$@" <<'EOF'
import sys
path, pairs = sys.argv[1], sys.argv[2:]
text = open(path).read()
for find, replace in zip(pairs[::2], pairs[1::2]):
    find, replace = find.replace("\\n", "\n"), replace.replace("\\n", "\n")
    if text.count(find) != 1:
        print(f"{find!r} occurs {text.count(find)} times", file=sys.stderr)
        sys.exit(3)
    text = text.replace(find, replace)
open(path, "w").write(text)
EOF
}

# The rows, one record per row: name, file, test, then find/replace pairs,
# fields separated by the unit separator.
rows=()
name='' file='' pairs=()
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in '#'* | '') continue ;; esac
    key=${line%%[[:space:]]*}
    value=${line#"$key"}
    value=${value#"${value%%[![:space:]]*}"}
    case "$key" in
        name) name=$value ;;
        file) file=$value ;;
        find | replace) pairs+=("$value") ;;
        test)
            if [ -z "$name" ] || [ -z "$file" ] || [ $((${#pairs[@]} % 2)) -ne 0 ] || [ ${#pairs[@]} -eq 0 ]; then
                echo "malformed row ending in: $line" >&2
                exit 2
            fi
            record="$name"$'\x1f'"$file"$'\x1f'"$value"
            for p in "${pairs[@]}"; do record+=$'\x1f'"$p"; done
            # A closing separator keeps an empty last `replace` a field.
            rows+=("$record"$'\x1f')
            name='' file='' pairs=()
            ;;
        *)
            echo "unknown key in $ledger: $key" >&2
            exit 2
            ;;
    esac
done < "$ledger"

cd "$tree"
run_test() {
    # shellcheck disable=SC2086 # the test field is a list of cargo arguments
    cargo test --offline -q $1 > "$tmp/test.log" 2>&1
}

# Every named test passes before any mutant is applied; otherwise a
# `killed` would mean nothing.
tests=$(for r in "${rows[@]}"; do IFS=$'\x1f' read -r -a f <<< "$r"; echo "${f[2]}"; done | sort -u)
while IFS= read -r t; do
    if ! run_test "$t"; then
        tail -n 30 "$tmp/test.log" >&2
        echo "baseline FAILED: cargo test $t fails with no mutant applied" >&2
        exit 1
    fi
done <<< "$tests"

failed=0
for r in "${rows[@]}"; do
    IFS=$'\x1f' read -r -a f <<< "$r"
    name=${f[0]} file=${f[1]} test=${f[2]}
    if ! apply "$file" "${f[@]:3}" 2> "$tmp/apply.log"; then
        result='snippet not found'
    elif ! cargo test --offline -q --no-run $test > "$tmp/test.log" 2>&1; then
        result=unviable
    elif run_test "$test"; then
        result=SURVIVED
    else
        result=killed
    fi
    git checkout -q -- "$file"
    [ "$result" = killed ] || failed=$((failed + 1))
    printf '%-18s %s (%s; cargo test %s)\n' "$result" "$name" "$file" "$test"
done
echo "${#rows[@]} mutants, $((${#rows[@]} - failed)) killed"
[ "$failed" -eq 0 ]
