package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// recordExpected runs every workload once at each of its eleven
// simulation seeds (ten measured, one held out) and writes the results as
// the expectations the benchmark checks against. Re-record only when a
// change is meant to alter simulated outputs.
func recordExpected(path string) error {
	exp := expectations{}
	for _, w := range workloads {
		exp[w.name] = map[string]json.RawMessage{}
		for i := uint64(0); i <= heldOutIndex; i++ {
			seed := w.base + i
			res := w.run(newRep(false), seed)
			raw, err := json.Marshal(res)
			if err != nil {
				return fmt.Errorf("record %s seed %d: %w", w.name, seed, err)
			}
			if f, why := res.compare(raw); f > 0 {
				return fmt.Errorf("record %s seed %d: result does not match itself: %s", w.name, seed, why)
			}
			exp[w.name][strconv.FormatUint(seed, 10)] = raw
		}
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
