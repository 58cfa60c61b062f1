//===- Tokenizer.h - UnigramLM subword tokenizer ----------------*- C++ -*-===//
///
/// \file
/// The paper's code tokenizer (§IV): UnigramLM subword vocabulary with a
/// small code-oriented vocab, digit-by-digit number splitting, punctuation
/// isolation, and SentencePiece-style metaspace ('▁', here the byte 0x1e
/// placeholder is avoided by using the literal UTF-8 sequence) marking
/// word-initial pieces. Whitespace runs are normalized to a single space,
/// which is lossless for C and assembly up to formatting.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_TOK_TOKENIZER_H
#define SLADE_TOK_TOKENIZER_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slade {
namespace tok {

/// Metaspace marker prepended to atoms that follow whitespace.
inline const char *metaspace() { return "\xe2\x96\x81"; } // U+2581

/// Splits \p Text into atoms: identifiers, single digits, single
/// punctuation characters; atoms preceded by whitespace get the metaspace
/// prefix.
std::vector<std::string> preTokenize(const std::string &Text);

class Tokenizer {
public:
  struct Config {
    unsigned VocabSize = 512;
    int EMIterations = 3;
    unsigned MaxPieceLen = 10;
  };

  /// Special token ids.
  static constexpr int PadId = 0;
  static constexpr int BosId = 1;
  static constexpr int EosId = 2;
  static constexpr int UnkId = 3;

  /// An empty vocabulary: every byte encodes to UnkId.
  Tokenizer() { rebuildIndex(); }

  /// Learns a UnigramLM vocabulary over \p Texts.
  static Tokenizer train(const std::vector<std::string> &Texts,
                         const Config &Cfg);

  /// Viterbi-segments \p Text (no BOS/EOS added).
  std::vector<int> encode(const std::string &Text) const;

  /// Longest piece window encode() segments with, in bytes: a piece may
  /// start at most this many bytes before the position it ends at.
  static constexpr size_t EncodeWindow = 28;

  /// Inverse of encode up to whitespace normalization.
  std::string decode(const std::vector<int> &Ids) const;

  size_t vocabSize() const { return Pieces.size(); }
  const std::string &piece(int Id) const { return Pieces[Id]; }
  float logProb(int Id) const { return LogProbs[Id]; }

  Status save(const std::string &Path) const;
  static Expected<Tokenizer> load(const std::string &Path);

private:
  /// Score of a byte no piece covers (it becomes UnkId).
  static constexpr float UnkPenalty = -30.0f;

  /// Reusable Viterbi buffers, grown to the longest atom seen.
  struct SegmentScratch {
    std::vector<float> Best;
    std::vector<int> BackPiece;
    std::vector<uint32_t> BackPos;
  };

  std::vector<std::string> Pieces; ///< Id -> piece text.
  std::vector<float> LogProbs;     ///< Id -> unigram log prob.

  /// Byte trie over Pieces. Node 0 is the root; a node's Id is the piece
  /// spelled by the path to it (-1 for none; the last id wins for a
  /// duplicated piece). The root's children are a dense table, inner
  /// nodes keep a short edge list.
  struct TrieNode {
    int Id = -1;
    uint32_t FirstEdge = 0;
    uint32_t NumEdges = 0;
  };
  std::vector<TrieNode> Nodes;
  std::vector<unsigned char> EdgeByte;
  std::vector<int> EdgeChild;
  int RootChild[256] = {};
  /// Node after each prefix of the metaspace marker (-1 once it leaves
  /// the trie): metaspace atoms start their walk here.
  int MetaspaceNode[4] = {};

  void rebuildIndex();
  int child(int Node, unsigned char C) const;
  /// Best segmentation of the atom [metaspace if \p Space] + \p Len
  /// bytes at \p Text over pieces at most \p Window bytes long; appends
  /// ids to \p Out.
  void segment(bool Space, const char *Text, size_t Len, size_t Window,
               SegmentScratch &S, std::vector<int> *Out) const;
};

} // namespace tok
} // namespace slade

#endif // SLADE_TOK_TOKENIZER_H
