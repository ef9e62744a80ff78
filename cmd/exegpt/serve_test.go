package main

import (
	"strings"
	"testing"
)

// TestServeRejectsBadFlags: flag values that serve.Options would
// silently rewrite to its defaults, or misread, fail before any work
// starts, with an error naming the flag.
func TestServeRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-rate", "-1"}, "-rate"},
		{[]string{"-duration", "+Inf"}, "-duration"},
		{[]string{"-duration", "-10"}, "-duration"},
		{[]string{"-slo", "-Inf"}, "-slo"},
		{[]string{"-slo", "-2"}, "-slo"},
		{[]string{"-window", "0"}, "-window"},
		{[]string{"-window", "NaN"}, "-window"},
		{[]string{"-switch-cost", "-5"}, "-switch-cost"},
		{[]string{"-switch-cost", "0"}, "-switch-cost"},
		{[]string{"-drift-tol", "0"}, "-drift-tol"},
		{[]string{"-drift-tol", "Inf"}, "-drift-tol"},
		{[]string{"-check-every", "0"}, "-check-every"},
		{[]string{"-check-every", "-3"}, "-check-every"},
	} {
		err := cmdServe(append([]string{"-quick"}, tc.args...))
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestServeAcceptsDefaultFlags: the defaults and the zero values that
// mean "unset" (-slo 0) pass the check.
func TestServeAcceptsDefaultFlags(t *testing.T) {
	if err := checkServeFlags(2, 300, 0, 10, 5, 0.25, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkServeFlags(1, 120, 5, 5, 2, 0.25, 2); err != nil {
		t.Fatal(err)
	}
}
