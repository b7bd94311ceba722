#!/usr/bin/env bash
# Mutation check: each patch under tests/mutants/ plants a known fault,
# and the test its header names must fail with it. The header lines
#
#   Re-plants: the change or DESIGN §7 correction whose fault it is
#   Must fail: --test compile_agreement residues_agree_with_a_per_match_oracle
#
# are the committed list of mutants; the second holds the arguments of
# `cargo test`. Every patch is applied to a
# throwaway git worktree at one path, checked out from a snapshot of the
# working tree as it stands (uncommitted and untracked files included,
# ignored ones not), and every build goes to one CARGO_TARGET_DIR
# (default target/mutants), so a mutant after the first rebuilds only
# the crates its patch touches.
#
#   scripts/mutants.sh
#
# Fails if a patch no longer applies (re-plant it on the code it
# mutates), if a mutant does not build, or if its test passes.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

case "${CARGO_TARGET_DIR:=target/mutants}" in
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
mkdir -p "$CARGO_TARGET_DIR"

scratch="$(mktemp -d)"
tree="$scratch/semrec"
remove_tree() {
  git worktree remove --force "$tree" 2>/dev/null || true
  git worktree prune
}
trap 'remove_tree; rm -rf "$scratch"' EXIT

# The snapshot: a commit of a throwaway index that holds every file of
# the working tree, so the mutants run against the code being checked.
export GIT_INDEX_FILE="$scratch/index"
cp "$(git rev-parse --git-path index)" "$GIT_INDEX_FILE" 2>/dev/null || true
git add -A
rev="$(GIT_AUTHOR_NAME=mutants GIT_AUTHOR_EMAIL=mutants@localhost \
  GIT_COMMITTER_NAME=mutants GIT_COMMITTER_EMAIL=mutants@localhost \
  git commit-tree -p HEAD -m "mutants: working tree" "$(git write-tree)")"
unset GIT_INDEX_FILE

status=0
for patch in tests/mutants/*.patch; do
  name="$(basename "$patch" .patch)"
  log="$CARGO_TARGET_DIR/$name.log"
  read -r -a args <<< "$(sed -n 's/^Must fail: //p' "$patch")"
  if [ "${#args[@]}" -eq 0 ] || ! grep -q '^Re-plants: .' "$patch"; then
    echo "$name: no 'Must fail:' or no 'Re-plants:' line" >&2
    status=1
    continue
  fi
  remove_tree
  git worktree add --quiet --detach "$tree" "$rev"
  if ! git -C "$tree" apply "$root/$patch"; then
    echo "$name: no longer applies to the working tree" >&2
    status=1
    continue
  fi
  if ! (cd "$tree" && cargo test -q --offline --no-run "${args[@]}") > "$log" 2>&1; then
    echo "$name: does not build (see $log)" >&2
    status=1
  elif (cd "$tree" && cargo test -q --offline "${args[@]}") >> "$log" 2>&1; then
    echo "$name: survived, \`cargo test ${args[*]}\` passed" >&2
    status=1
  else
    echo "$name: killed by \`cargo test ${args[*]}\`"
  fi
done
exit "$status"
