package compisa

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"compisa/internal/golden"
)

// commandsMarker precedes the README block whose every line
// TestReadmeCommands runs.
const commandsMarker = "<!-- readme_test.go runs every line of the next block -->"

// readmeCommands returns the commands of README.md's marked block, each
// without its trailing comment.
func readmeCommands(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(raw), commandsMarker+"\n```sh\n")
	if !ok {
		t.Fatalf("README.md has no %q line followed by a sh block", commandsMarker)
	}
	block, _, _ := strings.Cut(after, "```")
	var cmds []string
	for _, l := range strings.Split(block, "\n") {
		if c, _, _ := strings.Cut(l, "#"); strings.TrimSpace(c) != "" {
			cmds = append(cmds, strings.TrimSpace(c))
		}
	}
	return cmds
}

// readSources reads go.mod and every Go file of the module. The commands
// run in child processes, whose reads go test's result cache does not
// record; reading their sources here does, so a cached pass never outlives
// a change to a command's code.
func readSources(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "." && strings.HasPrefix(e.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go") || path == "go.mod":
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadmeCommands runs each command of README.md's marked block once
// from the repository root, as a reader would type it. A command fails the
// test on a non-zero exit, and its stdout must match the digest
// testdata/readme-commands.golden holds under the command's text, so a
// renamed flag, a crash or a changed output line shows here.
func TestReadmeCommands(t *testing.T) {
	readSources(t)
	var lines []string
	for _, c := range readmeCommands(t) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command("sh", "-c", c)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s: %v\n%s", c, err, stderr.Bytes())
		}
		sum := sha256.Sum256(stdout.Bytes())
		lines = append(lines, fmt.Sprintf("%s\tstdout=%x bytes=%d", c, sum[:8], stdout.Len()))
	}
	golden.Check(t, "readme-commands.golden", lines, false)
}
