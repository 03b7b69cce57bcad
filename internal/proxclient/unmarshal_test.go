package proxclient

import (
	"encoding/json"
	"reflect"
	"testing"

	"metricprox/internal/service/api"
)

// The client's response parse gives json.Unmarshal's value and error for
// every body: a BatchResponse through its UnmarshalJSON called directly,
// canonical or not, and any other type through json.Unmarshal itself.
// (FuzzWireCodec, internal/service/api, holds the BatchResponse half on
// fuzzed bytes.)
func TestUnmarshalMatchesEncodingJSON(t *testing.T) {
	bodies := []string{
		`{"results":[{"lb":0.125,"ub":0.5},{"less":true,"d":0.25,"exact":true},{"err":"bad_request"}]}` + "\n",
		`{"results":[{"d":"+Inf"},{"d":"-Inf"},{"eps":1e-7}]}`,
		` {"results":[{"d":0.5}]}`,
		`{ "results" : [ { "ub" : 1 , "lb" : 0.5 } ] }`,
		`{"results":[{"d":"Inf"}]}`,
		`{"results":[{"d":0.5,"x":1}]}`,
		`{"results":[{"less":1}]}`,
		`{"results":[{"d":0.5}]}xyz`,
		`{"results":[{"d":0.5}]`,
		`{"results":[]}`,
		`{"results":null}`,
		`null`,
		``,
		`[]`,
	}
	for _, body := range bodies {
		var got, want api.BatchResponse
		err, werr := unmarshal([]byte(body), &got), json.Unmarshal([]byte(body), &want)
		if !reflect.DeepEqual(got, want) || (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Errorf("%q: unmarshal %+v, %v; json.Unmarshal %+v, %v", body, got, err, want, werr)
		}
		var gotS, wantS api.SearchResponse
		err, werr = unmarshal([]byte(body), &gotS), json.Unmarshal([]byte(body), &wantS)
		if !reflect.DeepEqual(gotS, wantS) || (err == nil) != (werr == nil) {
			t.Errorf("%q as a SearchResponse: unmarshal %+v, %v; json.Unmarshal %+v, %v", body, gotS, err, wantS, werr)
		}
	}
}
