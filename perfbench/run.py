#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload plan|certify|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Configures and builds
perfbench/CMakeLists.txt (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs rainbow_perfbench with the
same arguments.  Build output goes to stderr; the benchmark's stdout is
passed through, so its last line is the result JSON.  A traced run also
prints the tracing overhead against the untraced run of the same workload
and seed, when one was made in this build directory.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def arg_value(argv, flag):
    if flag in argv:
        index = argv.index(flag)
        if index + 1 < len(argv):
            return argv[index + 1]
    return None


def git_sha():
    """HEAD of the checkout, or a digest of the sources when it is not a
    git work tree (the benchmark may run from an exported tree)."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "rainbow_perfbench"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "rainbow_perfbench")


def print_overhead(out_dir, workload, seed):
    """Tracing overhead: traced minus untraced end-to-end values."""
    stem = os.path.join(out_dir, f"perfbench-{workload}-seed{seed}")
    try:
        with open(stem + "-trace0.json") as handle:
            plain = json.load(handle)["end_to_end"]
        with open(stem + "-trace1.json") as handle:
            traced = json.load(handle)["end_to_end"]
    except (OSError, ValueError, KeyError):
        print(f"# tracing overhead: no untraced {workload} run with seed "
              f"{seed} in {out_dir} to compare against")
        return
    print(f"# tracing overhead ({workload}, seed {seed}): traced - untraced")
    for name, entry in traced.items():
        base = plain.get(name, {}).get("value")
        if base is None:
            continue
        delta = entry["value"] - base
        share = f"{100.0 * delta / base:+.1f} %" if base else "n/a"
        print(f"#   {name:<24} {delta:+14.6g} {entry['unit']:<8} {share}")


def main():
    argv = sys.argv[1:]
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    # Relative to the checkout root: the serve socket path must stay short.
    out_dir = os.path.relpath(os.path.join(build_dir, "results"), ROOT)
    os.makedirs(out_dir, exist_ok=True)
    run = subprocess.run([binary, *argv, "--out", out_dir,
                          "--git-sha", git_sha()],
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line)
    if arg_value(argv, "--trace") == "1" and result is not None:
        print_overhead(out_dir, arg_value(argv, "--workload"),
                       arg_value(argv, "--seed"))
    if result is not None:
        print(result)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
