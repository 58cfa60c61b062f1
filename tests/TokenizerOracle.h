//===- TokenizerOracle.h - reference Viterbi tokenizer ----------*- C++ -*-===//
///
/// \file
/// The substring/hash Viterbi that tok::Tokenizer::encode used before its
/// byte trie: for every end position, every start inside the 28-byte
/// window looks its substring up in a piece -> id map. Kept as the
/// differential oracle for the trie walk, which must return identical
/// ids on every input.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_TESTS_TOKENIZERORACLE_H
#define SLADE_TESTS_TOKENIZERORACLE_H

#include "tok/Tokenizer.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace slade {
namespace reference {

class TokenizerOracle {
public:
  explicit TokenizerOracle(const tok::Tokenizer &Tok) : Tok(Tok) {
    for (size_t I = 0; I < Tok.vocabSize(); ++I)
      PieceIds[Tok.piece(static_cast<int>(I))] = static_cast<int>(I);
  }

  std::vector<int> encode(const std::string &Text) const {
    std::vector<int> Out;
    for (const std::string &Atom : tok::preTokenize(Text))
      viterbi(Atom, &Out);
    return Out;
  }

private:
  void viterbi(const std::string &Atom, std::vector<int> *Out) const {
    const size_t Window = tok::Tokenizer::EncodeWindow;
    size_t N = Atom.size();
    std::vector<float> Best(N + 1, -1e30f);
    std::vector<int> BackPiece(N + 1, -1);
    std::vector<size_t> BackPos(N + 1, 0);
    Best[0] = 0;
    for (size_t End = 1; End <= N; ++End) {
      size_t MinStart = End > Window ? End - Window : 0;
      for (size_t Start = MinStart; Start < End; ++Start) {
        if (Best[Start] <= -1e29f)
          continue;
        auto It = PieceIds.find(Atom.substr(Start, End - Start));
        float Score;
        int Id;
        if (It != PieceIds.end()) {
          Id = It->second;
          Score = Best[Start] + Tok.logProb(Id);
        } else if (End - Start == 1) {
          Id = tok::Tokenizer::UnkId;
          Score = Best[Start] - 30.0f;
        } else {
          continue;
        }
        if (Score > Best[End]) {
          Best[End] = Score;
          BackPiece[End] = Id;
          BackPos[End] = Start;
        }
      }
    }
    std::vector<int> Rev;
    for (size_t Pos = N; Pos > 0; Pos = BackPos[Pos])
      Rev.push_back(BackPiece[Pos]);
    Out->insert(Out->end(), Rev.rbegin(), Rev.rend());
  }

  const tok::Tokenizer &Tok;
  std::unordered_map<std::string, int> PieceIds;
};

} // namespace reference
} // namespace slade

#endif // SLADE_TESTS_TOKENIZERORACLE_H
