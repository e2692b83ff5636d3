package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment records the machine and the source a result came from.
// Outside a git checkout the source is identified by a SHA-256 over
// every Go source and module file instead of a commit.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["git_sha"] = strings.TrimSpace(string(sha))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env["git_dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	} else {
		env["git_sha"] = "none"
		env["source_sha256"] = sourceHash(".")
	}
	return env
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes the path and content of every .go, go.mod and go.sum
// file under root, in sorted order, skipping hidden directories (build
// output lives in one).
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only narrows the hash
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
