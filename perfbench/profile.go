package main

import (
	"cmp"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the categories a CPU profile sample is charged to: the
// program's layers, then syscalls, the benchmark's own code (input
// generation and checking, including internal/trace) and the Go runtime.
var cpuLayers = []string{"lzf", "delta", "bloom", "flash", "ftl", "core", "timekits", "array", "service", "almaproto",
	"syscall", "goruntime", "bench"}

// classify names the category of one function, or "" for a function that
// only does work on behalf of its caller (runtime, sync, the standard
// library, and the program's vclock/obs/invariant helpers).
func classify(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "almanac/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "lzf", "delta", "bloom", "flash", "ftl", "core", "timekits", "array", "service", "almaproto":
			return pkg
		case "trace":
			return "bench"
		}
		return ""
	}
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "internal/runtime/syscall."), strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "os."):
		return "syscall"
	}
	return ""
}

// attribute charges every sample of the CPU profiles at paths to the
// first categorised frame from the leaf up (the runtime when there is
// none), reading the stacks `go tool pprof -traces` prints.
func attribute(paths []string) (map[string]int64, error) {
	if len(paths) == 0 {
		return map[string]int64{}, nil
	}
	args := append([]string{"tool", "pprof", "-traces", "-sample_index=samples"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return chargeTraces(string(out))
}

// chargeTraces sums the samples of `go tool pprof -traces` output per
// category. Each stack follows a separator line; its first line holds the
// sample count and the leaf frame, the next lines the callers.
func chargeTraces(text string) (map[string]int64, error) {
	into := map[string]int64{}
	var n int64
	cat, inBlock := "", false
	flush := func() {
		if n > 0 {
			into[cmp.Or(cat, "goruntime")] += n
		}
		n, cat, inBlock = 0, "", true
	}
	for _, line := range strings.Split(text, "\n") {
		fn := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			continue
		case !inBlock || fn == "":
			continue
		case n == 0:
			count, rest, _ := strings.Cut(fn, " ")
			c, err := strconv.ParseInt(count, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof trace: bad sample count in %q", line)
			}
			n, fn = c, strings.TrimSpace(rest)
		}
		if cat == "" {
			cat = classify(strings.TrimSuffix(fn, " (inline)"))
		}
	}
	flush()
	return into, nil
}
