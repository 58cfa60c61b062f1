//===- test_tokenizer.cpp - UnigramLM tokenizer tests -------------------------===//

#include "TokenizerOracle.h"
#include "core/Compile.h"
#include "dataset/Generator.h"
#include "support/RNG.h"
#include "tok/Tokenizer.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace slade;
using namespace slade::tok;

namespace {

TEST(PreTokenize, SplitsDigitsIndividually) {
  // §IV: 512 -> [5, 1, 2].
  auto Atoms = preTokenize("512");
  ASSERT_EQ(Atoms.size(), 3u);
  EXPECT_EQ(Atoms[0], "5");
  EXPECT_EQ(Atoms[1], "1");
  EXPECT_EQ(Atoms[2], "2");
}

TEST(PreTokenize, SplitsPunctuation) {
  auto Atoms = preTokenize("a+=b;");
  ASSERT_EQ(Atoms.size(), 5u);
  EXPECT_EQ(Atoms[0], "a");
  EXPECT_EQ(Atoms[1], "+");
  EXPECT_EQ(Atoms[2], "=");
  EXPECT_EQ(Atoms[3], "b");
  EXPECT_EQ(Atoms[4], ";");
}

TEST(PreTokenize, MarksSpacesWithMetaspace) {
  auto Atoms = preTokenize("int x");
  ASSERT_EQ(Atoms.size(), 2u);
  EXPECT_EQ(Atoms[0], "int");
  EXPECT_EQ(Atoms[1], std::string(metaspace()) + "x");
}

TEST(PreTokenize, DotsStayWithLabels) {
  auto Atoms = preTokenize(".L4:");
  ASSERT_EQ(Atoms.size(), 2u);
  EXPECT_EQ(Atoms[0], ".L4");
  EXPECT_EQ(Atoms[1], ":");
}

class TrainedTokenizer : public ::testing::Test {
protected:
  static Tokenizer &tokenizer() {
    static Tokenizer Tok = [] {
      std::vector<std::string> Texts;
      for (int I = 0; I < 40; ++I) {
        Texts.push_back("int sum(int *arr, int n) {\n"
                        "  int total = 0;\n"
                        "  for (int i = 0; i < n; i++) {\n"
                        "    total += arr[i];\n"
                        "  }\n"
                        "  return total;\n}\n");
        Texts.push_back("\tmovl\t%edi, -20(%rbp)\n\taddl\t$5, %eax\n"
                        "\tjmp\t.L2\n");
      }
      Tokenizer::Config Cfg;
      Cfg.VocabSize = 300;
      return Tokenizer::train(Texts, Cfg);
    }();
    return Tok;
  }
};

TEST_F(TrainedTokenizer, RoundTripsC) {
  std::string Src = "int f(int a) { return a + 42; }";
  std::vector<int> Ids = tokenizer().encode(Src);
  EXPECT_FALSE(Ids.empty());
  // Whitespace-normalized round trip.
  EXPECT_EQ(tokenizer().decode(Ids), Src);
}

TEST_F(TrainedTokenizer, RoundTripsAssembly) {
  std::string Asm = "movl %eax, -24(%rbp)";
  EXPECT_EQ(tokenizer().decode(tokenizer().encode(Asm)), Asm);
}

TEST_F(TrainedTokenizer, RoundTripsUnseenIdentifiers) {
  // Character coverage: unseen tokens are built from single characters.
  std::string Src = "zqxj_unseen99(zq)";
  EXPECT_EQ(tokenizer().decode(tokenizer().encode(Src)), Src);
}

TEST_F(TrainedTokenizer, NormalizesWhitespace) {
  EXPECT_EQ(tokenizer().decode(tokenizer().encode("int   \n x")), "int x");
}

TEST_F(TrainedTokenizer, LearnsFrequentSubwords) {
  // "total" appears constantly; it should encode into very few pieces.
  std::vector<int> Ids = tokenizer().encode("total");
  EXPECT_LE(Ids.size(), 2u);
}

TEST_F(TrainedTokenizer, VocabRespectsBudget) {
  EXPECT_LE(tokenizer().vocabSize(), 300u + 4u);
}

TEST_F(TrainedTokenizer, SaveLoadRoundTrip) {
  std::string Path = "/tmp/slade_tok_test.bin";
  ASSERT_TRUE(tokenizer().save(Path).ok());
  auto Loaded = Tokenizer::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.errorMessage();
  std::string Src = "int f(int a) { return a * 3; }";
  EXPECT_EQ(Loaded->encode(Src), tokenizer().encode(Src));
}

/// Generator corpora: the C sources and their x86/ARM, O0/O3 assembly.
std::vector<std::string> generatorTexts() {
  dataset::Corpus C =
      dataset::buildCorpus(dataset::Suite::ExeBench, 24, 0, /*Seed=*/4242);
  std::vector<std::string> Texts;
  for (const dataset::Sample &S : C.Train) {
    Texts.push_back(S.FunctionSource);
    for (asmx::Dialect D : {asmx::Dialect::X86, asmx::Dialect::Arm})
      for (bool Optimize : {false, true}) {
        auto Prog = core::compileProgram(S.FunctionSource, S.ContextSource,
                                         S.Name, D, Optimize);
        if (Prog.hasValue())
          Texts.push_back(Prog->TargetAsm);
      }
  }
  return Texts;
}

/// Seeded adversarial inputs: raw random bytes (every value, whitespace
/// and non-ASCII included), and runs of vocabulary pieces glued with
/// and without spaces, so equal-score segmentations are common.
std::vector<std::string> randomTexts(const Tokenizer &Tok, uint64_t Seed,
                                     size_t Count) {
  SplitMix64 Rng(Seed);
  std::vector<std::string> Out;
  for (size_t I = 0; I < Count; ++I) {
    std::string T;
    size_t Len = static_cast<size_t>(Rng.range(0, 64));
    if (I % 2 == 0) {
      for (size_t J = 0; J < Len; ++J)
        T.push_back(static_cast<char>(Rng.below(256)));
    } else {
      for (size_t J = 0; J < Len / 4; ++J) {
        T += Tok.piece(static_cast<int>(Rng.below(Tok.vocabSize())));
        if (Rng.below(3) == 0)
          T.push_back(' ');
      }
    }
    Out.push_back(std::move(T));
  }
  return Out;
}

void expectMatchesOracle(const Tokenizer &Tok,
                         const std::vector<std::string> &Texts) {
  reference::TokenizerOracle Oracle(Tok);
  size_t Mismatches = 0;
  for (const std::string &T : Texts)
    if (Tok.encode(T) != Oracle.encode(T))
      ++Mismatches;
  EXPECT_EQ(Mismatches, 0u) << "of " << Texts.size() << " inputs";
}

TEST(TokenizerTrie, MatchesOracleOnGeneratorCorpora) {
  std::vector<std::string> Texts = generatorTexts();
  ASSERT_GE(Texts.size(), 60u);
  Tokenizer Tok = Tokenizer::train(Texts, Tokenizer::Config());
  expectMatchesOracle(Tok, Texts);
  expectMatchesOracle(Tok, randomTexts(Tok, 7, 20000));
}

TEST(TokenizerTrie, MatchesOracleOnShippedTokenizers) {
  // The frozen serving-benchmark vocabularies, when the checkout has them.
  for (const char *Name : {"slade_x86_O0", "slade_arm_O3"}) {
    std::string Path = std::string(SLADE_SOURCE_DIR) +
                       "/perfbench/checkpoints/" + Name + ".tok";
    if (!std::ifstream(Path))
      continue;
    auto Tok = Tokenizer::load(Path);
    ASSERT_TRUE(Tok.hasValue()) << Tok.errorMessage();
    expectMatchesOracle(*Tok, generatorTexts());
    expectMatchesOracle(*Tok, randomTexts(*Tok, 11, 20000));
  }
}

TEST(TokenizerTrie, EmptyVocabularyEncodesEveryByteUnknown) {
  Tokenizer Tok;
  std::vector<int> Ids = Tok.encode("ab 1");
  // "a", "b", metaspace (3 bytes) + "1".
  EXPECT_EQ(Ids, std::vector<int>(6, Tokenizer::UnkId));
}

} // namespace
