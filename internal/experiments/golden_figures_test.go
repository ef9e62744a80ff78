// Golden output of the quick figures. The figure views share the
// sweep's measurement loop, so every row they print is pinned byte for
// byte across refactors of that loop. Regenerate with UPDATE_GOLDEN=1
// only after an intentional behavior change.
package experiments

import (
	"os"
	"strings"
	"testing"
)

const goldenFiguresPath = "testdata/golden_figures_quick.txt"

// quickFigures renders quick Figures 6–11 with the titles and spacing
// `exegpt figures -quick` prints, so the golden doubles as that
// command's expected output.
func quickFigures(t *testing.T) string {
	t.Helper()
	c := quick()
	var b strings.Builder
	emit := func(s string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s + "\n")
	}
	cells6, err := c.Figure6()
	emit(FormatThroughput("Figure 6: ExeGPT vs FT (small/mid models)", cells6), err)
	cells7, err := c.Figure7()
	emit(FormatThroughput("Figure 7: existing systems (OPT-13B, 4x A40)", cells7), err)
	cells8, err := c.Figure8()
	emit(FormatThroughput("Figure 8: ExeGPT-RRA vs FT (large models)", cells8), err)
	mem, err := c.Figure9()
	emit("Figure 9: per-GPU memory, FT vs WAA\n"+FormatMemory(mem), err)
	cells10, err := c.Figure10()
	emit(FormatThroughput("Figure 10: real-dataset emulations", cells10), err)
	shift, err := c.Figure11()
	emit("Figure 11: distribution shift (WAA, OPT-13B)\n"+FormatShift(shift), err)
	return b.String()
}

// TestFiguresGolden compares the quick figures to the committed golden.
// With UPDATE_GOLDEN=1 it rewrites the file from the current code.
func TestFiguresGolden(t *testing.T) {
	got := quickFigures(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenFiguresPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenFiguresPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("line %d differs:\n want %q\n  got %q", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("golden has %d lines, figures produced %d", len(wl), len(gl))
}
