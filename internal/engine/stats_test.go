package engine

import (
	"reflect"
	"testing"
)

// TestExecStatsAddSumsEveryField sets every int field of two ExecStats —
// the one cost record, obs.Cost — to distinct values and checks that Add
// sums each one, so a column added to the record cannot be left out of
// Add, and so of a sharded merge.
func TestExecStatsAddSumsEveryField(t *testing.T) {
	var a, b ExecStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int {
			t.Fatalf("ExecStats.%s is %s; this test and Add sum int fields only", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(1 + i))
		bv.Field(i).SetInt(int64(100 * (1 + i)))
	}
	sum := a
	sum.Add(b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(101*(1+i)); got != want {
			t.Errorf("Add: %s = %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}
