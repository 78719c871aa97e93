package main

import (
	"math"
	"net/http"
	"strconv"
	"testing"
)

// TestHalfWidthCheck: a half-width below zero by float resolution is
// counted as the known bootstrap defect; anything more negative, or
// missing, fails the request.
func TestHalfWidthCheck(t *testing.T) {
	c := &Client{sent: &sent{n: map[string]int{}}}
	v := 4.170936805657057e+08
	for _, tc := range []struct {
		hw          string
		fail, negHW bool
	}{
		{"0", false, false},
		{"12.5", false, false},
		{strconv.FormatFloat(-ulp(v), 'g', -1, 64), false, true},
		{"-1", true, false},
		{"", true, false},
	} {
		body := `{"request_id":"x","value":` + strconv.FormatFloat(v, 'g', -1, 64)
		if tc.hw != "" {
			body += `,"half_width":` + tc.hw
		}
		body += `,"elapsed_ms":1}`
		var out Outcome
		c.checkJSON(Item{Class: classBootstrap}, exchange{status: http.StatusOK, header: http.Header{}, body: []byte(body)}, &out)
		if out.Failed != tc.fail || out.NegativeHW != tc.negHW {
			t.Errorf("half-width %q: failed=%v (%s) negative=%v, want failed=%v negative=%v",
				tc.hw, out.Failed, out.Why, out.NegativeHW, tc.fail, tc.negHW)
		}
	}
	if got := ulp(v); got != math.Nextafter(v, math.Inf(1))-v || got <= 0 {
		t.Errorf("ulp(%v) = %v", v, got)
	}
}
