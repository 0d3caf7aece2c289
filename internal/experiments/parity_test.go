package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSuiteParity pins the trainer-driving experiments to the
// quick-mode outputs they produced before the scenario-engine refactor
// (testdata/parity/<id>.txt, captured from the hand-rolled construction
// paths). Every one of these experiments now enumerates scenario.Specs
// through scenario.Sweep, and this test is the proof that the engine
// reproduces their numbers bit-for-bit. fig15 is the exception in kind: no
// trainer, just the launch model's table, pinned to the text it printed
// while the model still lived in its own package. If an intentional model or
// calibration change shifts the numbers, regenerate the goldens by writing
// the new Run output over the files.
func TestQuickSuiteParity(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments")
	}
	ids := []string{"fig1", "fig5", "fig8", "fig9", "fig10", "fig12", "fig15", "scaling", "overlap"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "parity", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(id, Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Text != string(want) {
				t.Errorf("%s quick output drifted from the pre-scenario golden.\n--- got ---\n%s\n--- want ---\n%s", id, res.Text, want)
			}
		})
	}
}
