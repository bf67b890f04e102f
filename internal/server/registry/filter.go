package registry

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Filter narrows a listing along the registry's selection dimensions.
// String dimensions match case-insensitively; "" means any. Range
// bounds are inclusive; nil means unbounded.
type Filter struct {
	Set       string
	Name      string
	Library   string
	Scheme    string
	Algorithm string
	Flow      string // exact FlowID match, e.g. "qcaone_2ddwave_ortho+inord"
	Campaign  string
	InOrd     *bool
	PLO       *bool
	Hex       *bool
	Verified  *bool

	AreaMin, AreaMax           *int
	GatesMin, GatesMax         *int
	CrossingsMin, CrossingsMax *int
	WidthMax, HeightMax        *int
}

// filterKeys is the closed set of query parameters ParseFilterQuery
// accepts, beyond the paging parameters handled by the API layer.
var filterKeys = map[string]bool{
	"set": true, "name": true, "library": true, "clocking": true,
	"algorithm": true, "flow": true, "campaign": true,
	"inord": true, "plo": true, "hex": true, "verified": true,
	"area_min": true, "area_max": true, "gates_min": true, "gates_max": true,
	"crossings_min": true, "crossings_max": true,
	"width_max": true, "height_max": true,
}

// pagingKeys are accepted alongside filters but parsed elsewhere.
var pagingKeys = map[string]bool{"limit": true, "cursor": true}

// BadFilterError reports an unusable filter query: an unknown
// parameter, a malformed boolean, or a non-integer range bound. The
// API layer maps it to HTTP 400.
type BadFilterError struct{ Reason string }

func (e *BadFilterError) Error() string { return "registry: bad filter: " + e.Reason }

// ParseFilterQuery builds a Filter from URL query parameters, the
// registry's filter grammar:
//
//	set, name, library, clocking, algorithm, flow, campaign — string match
//	inord, plo, hex, verified                               — booleans (1/0/true/false)
//	area_min, area_max, gates_min, gates_max,
//	crossings_min, crossings_max, width_max, height_max     — integer bounds
//
// Unknown parameters are rejected so that a typo ("libary=...") cannot
// silently return the unfiltered catalogue.
func ParseFilterQuery(q url.Values) (Filter, error) {
	var f Filter
	for key, vals := range q {
		if pagingKeys[key] {
			continue
		}
		if !filterKeys[key] {
			return Filter{}, &BadFilterError{Reason: fmt.Sprintf("unknown parameter %q", key)}
		}
		if len(vals) == 0 {
			continue
		}
		v := vals[0]
		if v == "" {
			continue
		}
		switch key {
		case "set":
			f.Set = v
		case "name":
			f.Name = v
		case "library":
			f.Library = v
		case "clocking":
			f.Scheme = v
		case "algorithm":
			f.Algorithm = v
		case "flow":
			f.Flow = v
		case "campaign":
			f.Campaign = v
		case "inord", "plo", "hex", "verified":
			b, err := parseBool(key, v)
			if err != nil {
				return Filter{}, err
			}
			switch key {
			case "inord":
				f.InOrd = b
			case "plo":
				f.PLO = b
			case "hex":
				f.Hex = b
			case "verified":
				f.Verified = b
			}
		default: // integer bounds
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Filter{}, &BadFilterError{Reason: fmt.Sprintf("%s=%q is not a non-negative integer", key, v)}
			}
			switch key {
			case "area_min":
				f.AreaMin = &n
			case "area_max":
				f.AreaMax = &n
			case "gates_min":
				f.GatesMin = &n
			case "gates_max":
				f.GatesMax = &n
			case "crossings_min":
				f.CrossingsMin = &n
			case "crossings_max":
				f.CrossingsMax = &n
			case "width_max":
				f.WidthMax = &n
			case "height_max":
				f.HeightMax = &n
			}
		}
	}
	if f.AreaMin != nil && f.AreaMax != nil && *f.AreaMin > *f.AreaMax {
		return Filter{}, &BadFilterError{Reason: "area_min exceeds area_max"}
	}
	return f, nil
}

// parseBool maps the accepted boolean spellings onto *bool.
func parseBool(key, v string) (*bool, error) {
	switch strings.ToLower(v) {
	case "1", "true", "yes":
		b := true
		return &b, nil
	case "0", "false", "no":
		b := false
		return &b, nil
	}
	return nil, &BadFilterError{Reason: fmt.Sprintf("%s=%q is not a boolean", key, v)}
}

// Match reports whether the record satisfies the filter.
func (f Filter) Match(r *Record) bool {
	eq := strings.EqualFold
	switch {
	case f.Set != "" && !eq(f.Set, r.Set),
		f.Name != "" && !eq(f.Name, r.Name),
		f.Library != "" && !eq(f.Library, r.Library),
		f.Scheme != "" && !eq(f.Scheme, r.Scheme),
		f.Algorithm != "" && !eq(f.Algorithm, r.Algorithm),
		f.Flow != "" && !eq(f.Flow, r.FlowID),
		f.Campaign != "" && !eq(f.Campaign, r.Campaign):
		return false
	case f.InOrd != nil && *f.InOrd != r.InOrd,
		f.PLO != nil && *f.PLO != r.PLO,
		f.Hex != nil && *f.Hex != r.Hex,
		f.Verified != nil && *f.Verified != r.Verified:
		return false
	case f.AreaMin != nil && r.Area < *f.AreaMin,
		f.AreaMax != nil && r.Area > *f.AreaMax,
		f.GatesMin != nil && r.Gates < *f.GatesMin,
		f.GatesMax != nil && r.Gates > *f.GatesMax,
		f.CrossingsMin != nil && r.Crossings < *f.CrossingsMin,
		f.CrossingsMax != nil && r.Crossings > *f.CrossingsMax,
		f.WidthMax != nil && r.Width > *f.WidthMax,
		f.HeightMax != nil && r.Height > *f.HeightMax:
		return false
	}
	return true
}

// BestPerFunction keeps, for each (set, name, library), the record
// that ranks first under Table I's rule (core.Rank: area, then
// crossings, then flow ID), so the answer never depends on the order
// of recs. Groups appear in the order of their first record.
func BestPerFunction(recs []Record) []Record {
	type key struct{ set, name, lib string }
	at := make(map[key]int)
	var out []Record
	for _, r := range recs {
		k := key{r.Set, r.Name, r.Library}
		i, ok := at[k]
		switch {
		case !ok:
			at[k] = len(out)
			out = append(out, r)
		case r.rank().Beats(out[i].rank()):
			out[i] = r
		}
	}
	return out
}

func (r *Record) rank() core.Rank {
	return core.Rank{Area: r.Area, Crossings: r.Crossings, FlowID: r.FlowID}
}

// Signature canonicalizes the filter for embedding in a cursor: a
// cursor minted under one filter must not resume a walk under another,
// or pages would skip and duplicate unpredictably. The encoding is a
// sorted key=value join of the non-zero dimensions.
func (f Filter) Signature() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+strings.ToLower(v))
		}
	}
	addB := func(k string, b *bool) {
		if b != nil {
			parts = append(parts, k+"="+strconv.FormatBool(*b))
		}
	}
	addI := func(k string, n *int) {
		if n != nil {
			parts = append(parts, k+"="+strconv.Itoa(*n))
		}
	}
	add("set", f.Set)
	add("name", f.Name)
	add("library", f.Library)
	add("clocking", f.Scheme)
	add("algorithm", f.Algorithm)
	add("flow", f.Flow)
	add("campaign", f.Campaign)
	addB("inord", f.InOrd)
	addB("plo", f.PLO)
	addB("hex", f.Hex)
	addB("verified", f.Verified)
	addI("area_min", f.AreaMin)
	addI("area_max", f.AreaMax)
	addI("gates_min", f.GatesMin)
	addI("gates_max", f.GatesMax)
	addI("crossings_min", f.CrossingsMin)
	addI("crossings_max", f.CrossingsMax)
	addI("width_max", f.WidthMax)
	addI("height_max", f.HeightMax)
	sort.Strings(parts)
	return strings.Join(parts, "&")
}
