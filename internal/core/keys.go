package core

import "fmt"

// renderKeys renders format for every index in [0, n) once, so a workload
// drawing keys from a bounded key space indexes a table instead of
// formatting a key per request. The table is never written after it is
// built, so concurrent sweep workers share it.
func renderKeys(format string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf(format, i)
	}
	return keys
}
