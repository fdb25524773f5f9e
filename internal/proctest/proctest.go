//go:build unix

// Package proctest runs a command's own main function as a child process
// of the command's test binary, so a test drives the binary as shipped:
// its flag parsing, a real listener, real signals, a real exit status. The
// child is the test binary itself, so under -race it is race-instrumented.
//
// A command's tests opt in with
//
//	func TestMain(m *testing.M) { proctest.Main(m, main) }
package proctest

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// childEnv marks a test binary started by Start: it runs main, not tests.
const childEnv = "ENERGYCLARITY_PROCTEST_CHILD"

// Main is a command's TestMain: in a child started by Start it runs the
// command's main on the child's arguments and exits with its status;
// otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Process is a running child.
type Process struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the child has exited and its output is read
	err  error         // the child's exit error; read only after done

	mu  sync.Mutex
	out strings.Builder
}

// Start runs the command with args and returns once a line of its output
// contains ready, together with the first http:// URL on that line. It
// never sleeps or polls: readiness is the child's own word. The child is
// killed when the test ends, if it is still running then.
func Start(t testing.TB, ready string, args ...string) (*Process, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // one stream, in the order it was written
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &Process{cmd: cmd, done: make(chan struct{})}
	urlc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		for announce := urlc; sc.Scan(); {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if announce != nil && strings.Contains(line, ready) {
				announce <- firstURL(line)
				announce = nil
			}
		}
		p.err = cmd.Wait()
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // fails harmlessly once the child has exited
		<-p.done
	})
	select {
	case url := <-urlc:
		return p, url
	case <-p.done:
		t.Fatalf("%v exited before printing %q: %v\n%s", args, ready, p.err, p.Output())
		return nil, ""
	}
}

// firstURL returns the first whitespace-separated http:// field of line.
func firstURL(line string) string {
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "http://") {
			return f
		}
	}
	return ""
}

// Output returns everything the child has printed so far, stdout and
// stderr interleaved.
func (p *Process) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// Stop sends the child SIGTERM and waits for it to exit. It returns the
// child's whole output and its exit error: nil for exit status 0.
func (p *Process) Stop(t testing.TB) (string, error) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	<-p.done
	return p.Output(), p.err
}
