package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAll runs every workload in its own child process, so each keeps
// its own peak RSS and set-up, echoes their output, and ends with one
// JSON line whose metrics are keyed <workload>.<metric>.
func runAll(seed int64, seconds, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadOrder {
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		var last string
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("workload %s: bad result line: %w", w, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			total.Metrics[w+"."+name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
