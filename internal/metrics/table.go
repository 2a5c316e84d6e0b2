package metrics

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// field is one metric field: its tags, a pointer to the metric and, when
// paired, the same-named field of a snapshot struct.
type field struct {
	family, help string
	labels       []string // alternating key, value pairs
	m            any
	s            reflect.Value
}

// fields parses the metric fields of the struct v points to, pairing each
// with the same-named int64 or HistogramSnapshot field of struct sn when sn
// is valid. An untagged or unpaired metric is a declaration bug and panics.
func fields(v any, sn reflect.Value) []field {
	rv := reflect.ValueOf(v).Elem()
	var fs []field
	for i := 0; i < rv.NumField(); i++ {
		sf := rv.Type().Field(i)
		if sf.Type != reflect.TypeOf(Counter{}) && sf.Type != reflect.TypeOf(Histogram{}) {
			continue
		}
		f := field{family: sf.Tag.Get("metric"), help: sf.Tag.Get("help"), m: rv.Field(i).Addr().Interface(),
			labels: strings.FieldsFunc(sf.Tag.Get("labels"), func(r rune) bool { return r == ',' || r == '=' })}
		if f.family == "" || f.help == "" {
			panic(fmt.Sprintf("metrics: %s.%s lacks a metric or help tag", rv.Type(), sf.Name))
		}
		if sn.IsValid() {
			if f.s = sn.FieldByName(sf.Name); !f.s.IsValid() {
				panic(fmt.Sprintf("metrics: %s has no field %s", sn.Type(), sf.Name))
			}
		}
		fs = append(fs, f)
	}
	return fs
}

// Snapshot returns an S holding the current value of every metric field of
// the struct live points to, paired by field name.
func Snapshot[S any](live any) S {
	var sn S
	for _, f := range fields(live, reflect.ValueOf(&sn).Elem()) {
		switch m := f.m.(type) {
		case *Counter:
			f.s.SetInt(m.Load())
		case *Histogram:
			f.s.Set(reflect.ValueOf(m.Snapshot()))
		}
	}
	return sn
}

// Merge adds snapshot struct sn into the same-named metric fields of the
// struct live points to (a resumed run).
func Merge(live, sn any) {
	for _, f := range fields(live, reflect.ValueOf(sn)) {
		switch m := f.m.(type) {
		case *Counter:
			m.Add(f.s.Int())
		case *Histogram:
			m.Merge(f.s.Interface().(HistogramSnapshot))
		}
	}
}

// CheckSnapshot reports a negative count, sum or bucket in snapshot struct
// sn: live metrics only grow, so one marks a corrupt file.
func CheckSnapshot(sn any) error {
	v := reflect.ValueOf(sn)
	for i := 0; i < v.NumField(); i++ {
		n, _ := v.Field(i).Interface().(int64)
		h, _ := v.Field(i).Interface().(HistogramSnapshot)
		if n < 0 || h.Count < 0 || h.SumNS < 0 || slices.ContainsFunc(h.Buckets, func(b int64) bool { return b < 0 }) {
			return fmt.Errorf("metrics: %s.%s is negative", v.Type(), v.Type().Field(i).Name)
		}
	}
	return nil
}

// Struct emits every metric field of the struct v points to, in
// declaration order, as its tags declare.
func (p *PromWriter) Struct(v any) {
	for _, f := range fields(v, reflect.Value{}) {
		switch m := f.m.(type) {
		case *Counter:
			p.Counter(f.family, f.help, m.Load(), f.labels...)
		case *Histogram:
			p.Histogram(f.family, f.help, m.Snapshot(), f.labels...)
		}
	}
}
