package api

import "io"

// presizeMax caps the buffer ReadBody allocates from a declared length
// before any byte arrives, so that a Content-Length alone cannot buy a
// large allocation; a longer body grows the buffer as it arrives.
const presizeMax = 1 << 20

// ReadBody reads r to its end into one buffer sized from size, the
// body's Content-Length (negative when unknown), so that a body that
// arrives as declared is read with one allocation and no copy. On a read
// error it returns the bytes read so far with the error; io.EOF ends the
// body and is not an error. The node reads bulk requests through it, the
// router every request and upstream answer, and proxclient every
// response.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		n = int(min(size, presizeMax)) + 1 // room for the read that sees EOF
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // grow as io.ReadAll does
		}
	}
}
