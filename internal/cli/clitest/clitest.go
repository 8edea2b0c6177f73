// Package clitest holds test helpers for the commands built on cli.
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanguard/internal/engine"
)

// Exec runs the command on args and returns what it printed.
func Exec(run func([]string, io.Writer, io.Writer) error, args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

// flagList reduces -h output to one line per flag: name, value type and
// any "(default ...)" clause, with engine.DefaultDir() as $CACHE_DIR.
func flagList(help string) string {
	if dir := engine.DefaultDir(); dir != "" {
		help = strings.ReplaceAll(help, dir, "$CACHE_DIR")
	}
	var lines []string
	for _, l := range strings.Split(help, "\n") {
		switch {
		case strings.HasPrefix(l, "  -"):
			lines = append(lines, strings.TrimSpace(l))
		case strings.HasPrefix(l, "    \t") && len(lines) > 0:
			if i := strings.LastIndex(l, " (default "); i >= 0 && strings.HasSuffix(l, ")") {
				lines[len(lines)-1] += l[i:]
			}
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// CheckFlags compares the flagList of run -h with testdata/flags.golden.
func CheckFlags(t *testing.T, run func([]string, io.Writer, io.Writer) error) {
	t.Helper()
	_, help, err := Exec(run, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := flagList(help); got != string(want) {
		t.Errorf("flag list drifted from testdata/flags.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
