#!/usr/bin/env bash
# The documents name things that exist. In README / DESIGN / EXPERIMENTS /
# results/README.md / the verify skill, fail on
#   1. a binary — `--bin <name>`, ``bin `<name>` `` or `` `<name>` binary `` —
#      with no crates/wp-bench/src/bin/<name>.rs or examples/<name>.rs;
#   2. a `results/...` or `crates/...` path that is not in the tree (braces
#      and `*` expand, `<placeholder>` is `*`; every alternative must exist);
#   3. a backticked `<bench>.<metric>` that is neither a bound a bench
#      binary checks (a `"kernels.…"` / `"tune.…"` literal in
#      crates/wp-bench/src/bin/{kernels,tune}.rs; `*` globs) nor a
#      `<workload>.<metric>` / per-layer name of BENCHMARK.json;
#   4. a backticked `wp_<crate>::…::item` / `weipipe::…::item` with a segment
#      that is no `fn|struct|enum|trait|type|const|static|mod` (or
#      `macro_rules!`) declared under that crate's src/ (the path is read up
#      to its first `(`, `<`, `{` or space);
#   5. a backtick-opened multi-hump CamelCase name (`WaitReq`, the head of
#      `OpKind::Recv`) that occurs as no word under crates/*/src, examples/
#      or benchmark/src;
#   6. a backtick-opened snake_case name (`recv_into`, the head of
#      `reseed_bwd_flow()`) that occurs as no word under crates/*/src,
#      crates/*/tests, tests/, examples/ or benchmark/src and is neither a
#      file stem in the tree nor a BENCHMARK.json name;
#   7. (also in ROADMAP.md and under crates/) a `DESIGN §N` or
#      `DESIGN.md §N` whose N is no numbered heading of DESIGN.md.
# Run from the repository root. Prints one line per stale name.
set -u
shopt -s nullglob

docs=(README.md DESIGN.md EXPERIMENTS.md results/README.md .claude/skills/verify/SKILL.md)
bounds=$(grep -ohE '"(kernels|tune)\.[a-z0-9_]+"' crates/wp-bench/src/bin/{kernels,tune}.rs | tr -d '"')
bench_names=$(grep -oE '"name": "[^"]+"' BENCHMARK.json | cut -d'"' -f4)
camel='[A-Z][a-z0-9]+([A-Z][a-z0-9]*)+'
code_names=$(grep -rhoE "\b$camel\b" crates/*/src examples benchmark/src | sort -u)
snake='[a-z][a-z0-9]*(_[a-z0-9]+)+'
snake_names=$({
    grep -rhoE "\b$snake\b" crates/*/src crates/*/tests tests examples benchmark/src
    git ls-files | sed -E 's|.*/||; s|\..*||'
    echo "$bench_names"
} | sort -u)
design_sections=$(grep -oE '^#+ [0-9]+\.' DESIGN.md | grep -oE '[0-9]+')
bad=0

stale() {
    echo "$1:$2: $3"
    bad=1
}

known_metric() {
    local token=$1 key
    for key in $bounds; do
        # shellcheck disable=SC2053
        [[ $key == $token ]] && return 0
    done
    grep -qxF "$token" <<<"$bench_names" && return 0
    grep -qxF "${token%%.*}" <<<"$bench_names" && grep -qxF "${token#*.}" <<<"$bench_names"
}

for doc in "${docs[@]}"; do
    while IFS=: read -r line name; do
        [ -f "crates/wp-bench/src/bin/$name.rs" ] || [ -f "examples/$name.rs" ] ||
            stale "$doc" "$line" "binary $name: no crates/wp-bench/src/bin/$name.rs or examples/$name.rs"
    done < <(grep -noE -- '--bin [A-Za-z0-9_-]+|\bbin `[A-Za-z0-9_-]+|`[A-Za-z0-9_-]+` binary' "$doc" |
        sed -E 's/^([0-9]+:)(--bin |bin `|`)([A-Za-z0-9_-]+).*/\1\3/')

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
            stale "$doc" "$line" "$token: not a bound of crates/wp-bench/src/bin/{kernels,tune}.rs or a metric of BENCHMARK.json"
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

    while IFS=: read -r line name; do
        grep -qxF "$name" <<<"$code_names" ||
            stale "$doc" "$line" "$name: no such word under crates/*/src, examples/ or benchmark/src"
    done < <(grep -noE "\`$camel" "$doc" | tr -d '`')

    while IFS=: read -r line name; do
        grep -qxF "$name" <<<"$snake_names" ||
            stale "$doc" "$line" "$name: no such word under crates/*/src, crates/*/tests, tests/, examples/ or benchmark/src, no file stem, no BENCHMARK.json name"
    done < <(grep -noE "\`$snake\b" "$doc" | tr -d '`')
done

while IFS=: read -r file line n; do
    grep -qxF "$n" <<<"$design_sections" ||
        stale "$file" "$line" "DESIGN §$n: DESIGN.md has no heading numbered $n"
done < <(grep -rnoE 'DESIGN(\.md)?`? ?§ ?[0-9]+' README.md EXPERIMENTS.md ROADMAP.md crates |
    sed -E 's/^([^:]+:[0-9]+:).*§ ?([0-9]+)$/\1\2/')
exit $bad
