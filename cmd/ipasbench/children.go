package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runChildren runs every workload once, each in a fresh child process
// (its own golden cache, heap and RSS), and prints each child's result
// line prefixed with the workload's name. It fails when a child fails
// or reports an incorrect run.
func runChildren(o runOptions, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ipasbench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	status := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		line := lastLine(out)
		var res result
		if err == nil {
			err = json.Unmarshal(line, &res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ipasbench: %s: run failed: %v\n", name, err)
			status = 1
			continue
		}
		if !res.Correct {
			status = 1
		}
		fmt.Fprintf(stdout, "%s: %s\n", name, line)
	}
	return status
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return bytes.TrimSpace(lines[len(lines)-1])
}
