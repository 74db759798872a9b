#!/usr/bin/env bash
# The documents name things that exist. In README / DESIGN / EXPERIMENTS /
# results/README.md / the verify skill, fail on
#   1. `--bin <name>` with no crates/wp-bench/src/bin/<name>.rs or
#      examples/<name>.rs;
#   2. a `results/...` or `crates/...` path that is not in the tree (braces
#      and `*` expand, `<placeholder>` is `*`; every alternative must exist);
#   3. a backticked `<bench>.<metric>` that is neither a key of
#      ci/bench_floors.json (`*` globs) nor a `<workload>.<metric>` /
#      per-layer name of BENCHMARK.json;
#   4. a backticked `wp_<crate>::…::item` / `weipipe::…::item` with a segment
#      that is no `fn|struct|enum|trait|type|const|static|mod` (or
#      `macro_rules!`) declared under that crate's src/ (the path is read up
#      to its first `(`, `<`, `{` or space).
# Run from the repository root. Prints one line per stale name.
set -u
shopt -s nullglob

docs=(README.md DESIGN.md EXPERIMENTS.md results/README.md .claude/skills/verify/SKILL.md)
floor_keys=$(grep -oE '"[a-z_]+\.[a-z0-9_]+"' ci/bench_floors.json | tr -d '"')
bench_names=$(grep -oE '"name": "[^"]+"' BENCHMARK.json | cut -d'"' -f4)
bad=0

stale() {
    echo "$1:$2: $3"
    bad=1
}

known_metric() {
    local token=$1 key
    for key in $floor_keys; do
        # shellcheck disable=SC2053
        [[ $key == $token ]] && return 0
    done
    grep -qxF "$token" <<<"$bench_names" && return 0
    grep -qxF "${token%%.*}" <<<"$bench_names" && grep -qxF "${token#*.}" <<<"$bench_names"
}

for doc in "${docs[@]}"; do
    while IFS=: read -r line name; do
        [ -f "crates/wp-bench/src/bin/$name.rs" ] || [ -f "examples/$name.rs" ] ||
            stale "$doc" "$line" "--bin $name: no crates/wp-bench/src/bin/$name.rs or examples/$name.rs"
    done < <(grep -noE -- '--bin [A-Za-z0-9_-]+' "$doc" | sed 's/--bin //')

    while IFS=: read -r line path; do
        pattern=$(sed -E 's/<[^>]*>/*/g; s/[.,]+$//' <<<"$path")
        found=0
        for f in $(eval "echo $pattern"); do
            found=1
            [ -e "$f" ] || stale "$doc" "$line" "$path: $f does not exist"
        done
        [ "$found" = 1 ] || stale "$doc" "$line" "$path: nothing matches"
    done < <(grep -noE '\b(results|crates)/[A-Za-z0-9_./{},*<>-]*' "$doc")

    while IFS=: read -r line token; do
        case $token in *.rs | *.json | *.txt | *.md | *.csv | *.svg | *.toml | *.yml | *.sh | *.prom | *.lock) continue ;; esac
        known_metric "$token" ||
            stale "$doc" "$line" "$token: not a key of ci/bench_floors.json or a metric of BENCHMARK.json"
    done < <(grep -noE '`[a-z][a-z0-9_-]*\.[a-z0-9_*]*[a-z0-9_*][` ]' "$doc" | tr -d '` ')

    while IFS=: read -r line token; do
        path=${token%%[^A-Za-z0-9_:]*}
        path=${path%::}
        crate=${path%%::*}
        src=crates/${crate//_/-}/src
        [ -d "$src" ] || {
            stale "$doc" "$line" "$path: no $src"
            continue
        }
        for item in $(sed 's/::/ /g' <<<"${path#"$crate"}"); do
            grep -rqE "\b(fn|struct|enum|trait|type|const|static|mod|macro_rules!) +$item\b" "$src" ||
                stale "$doc" "$line" "$path: no fn|struct|enum|trait|type|const|static|mod $item under $src"
        done
    done < <(grep -noE '`(wp_[a-z]+|weipipe)::[^`]*`' "$doc" | tr -d '`')
done
exit $bad
