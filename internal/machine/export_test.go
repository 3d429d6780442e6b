package machine

// ReferenceTime exports the map-based reference packer to the
// external machine_test package.
var ReferenceTime = referenceTime

// Aggregate merges messages with identical (src, dst) into one, in
// order of first appearance: the message-vectorized execution of a
// pattern (Section 4.5), done in a second pass over the list. It is
// the oracle AffineComm2D's single-pass aggregation is checked
// against.
func Aggregate(msgs []Message) []Message {
	type key struct{ s, d int }
	sum := map[key]int64{}
	var order []key
	for _, m := range msgs {
		k := key{m.Src, m.Dst}
		if _, ok := sum[k]; !ok {
			order = append(order, k)
		}
		sum[k] += m.Bytes
	}
	out := make([]Message, 0, len(order))
	for _, k := range order {
		out = append(out, Message{Src: k.s, Dst: k.d, Bytes: sum[k]})
	}
	return out
}
