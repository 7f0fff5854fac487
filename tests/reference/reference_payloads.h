// Serial parsers of the durable payloads: the front-to-back loaders that
// read an artifact directory and a serve snapshot one token, one file at a
// time, kept verbatim as the oracle for the pooled parse in
// src/core/artifacts.cc (ArtifactStoreParse: embeddings.txt cut into
// pieces, every payload a pool task) and src/serve/wal.cc
// (ParseServeSnapshot: graph, state and artifacts in one pass).
// tests/payload_parse_test.cc feeds both mutated payloads and requires
// equal values bit for bit, or the same StatusCode and message. Test-only
// library, like its companion tests/reference/reference_kernels.h.
#ifndef GRGAD_TESTS_REFERENCE_REFERENCE_PAYLOADS_H_
#define GRGAD_TESTS_REFERENCE_REFERENCE_PAYLOADS_H_

#include <string>
#include <string_view>

#include "src/core/artifacts.h"
#include "src/serve/wal.h"
#include "src/tensor/matrix.h"
#include "src/util/atomic_io.h"
#include "src/util/status.h"

namespace grgad::reference {

/// A matrix payload ("<rows> <cols>", then rows·cols cells) scanned token
/// by token: the first bad or missing cell, else trailing data, is the
/// error; `path` names the file in it.
Status ParseMatrixPayload(std::string_view content, const std::string& path,
                          Matrix* out);

/// The artifact directory `stored` (read from `dir`) parsed front to back:
/// the manifest header, then each payload in manifest order, then the
/// declared counts; the first failure is returned.
Result<PipelineArtifacts> ParseArtifactStore(const StoreDir& stored,
                                             const std::string& dir);

/// The serve snapshot parsed front to back: the manifest header,
/// graph.txt, serve_state.txt, then the artifacts (`artifacts` is what
/// ReadStoreDir returned for the nested directory; NotFound there is
/// DataLoss), then the refresh-cache size check.
Result<LoadedServeSnapshot> ParseServeSnapshot(
    const StoreDir& snapshot, const Result<StoreDir>& artifacts,
    const std::string& snap_dir);

}  // namespace grgad::reference

#endif  // GRGAD_TESTS_REFERENCE_REFERENCE_PAYLOADS_H_
